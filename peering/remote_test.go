package peering

import (
	"net"
	"testing"
	"time"

	"repro/internal/inet"
)

// TestRemoteClientOverTCP drives the full experiment loop over a real
// TCP connection: the platform listens, a remote client dials, opens the
// tunnel, runs BGP, announces, and sends data-plane traffic — the
// deployment shape of the real system (researcher's machine -> VPN ->
// PoP).
func TestRemoteClientOverTCP(t *testing.T) {
	p, pop, c := testbed(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go p.ListenAndServe(ln)

	if err := c.DialTCP(ln.Addr().String(), pop.Name, p.ASN()); err != nil {
		t.Fatal(err)
	}
	if c.TunnelStatus("amsix") != "up" {
		t.Fatal("tunnel down")
	}
	if err := c.StartBGP("amsix"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}

	probe := inet.PrefixForASN(100)
	waitFor(t, 5*time.Second, "routes over TCP", func() bool { return len(c.RoutesFor("amsix", probe)) == 2 })

	if err := c.Announce("amsix", pfx("184.164.224.0/24")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "announcement propagates", func() bool {
		return p.Topology().Reachable(1000, pfx("184.164.224.0/24"))
	})
	// Data plane across TCP: egress selection and an echo round trip.
	if _, err := c.Ping("amsix", 1, probe.Addr().Next(), 3, 1, 5*time.Second); err != nil {
		t.Fatalf("ping over TCP tunnel: %v", err)
	}
	// Policy still applies to remote clients.
	if err := c.Announce("amsix", pfx("8.8.8.0/24")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if rt := p.Topology().RouteAt(1000, pfx("8.8.8.0/24")); rt != nil {
		for _, hop := range rt.Path {
			if hop == 47065 {
				t.Fatal("hijack escaped over remote path")
			}
		}
	}
}

func TestRemoteClientBadPopName(t *testing.T) {
	p, _, c := testbed(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go p.ListenAndServe(ln)

	if err := c.DialTCP(ln.Addr().String(), "nonexistent", p.ASN()); err == nil {
		t.Fatal("dial to unknown pop succeeded")
	}
}

func TestRemoteClientBadCredentials(t *testing.T) {
	p, pop, _ := testbed(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go p.ListenAndServe(ln)

	bad := NewClient("exp1", "not-the-key", expASN)
	if err := bad.DialTCP(ln.Addr().String(), pop.Name, p.ASN()); err == nil {
		t.Fatal("bad credentials accepted over TCP")
	}
}
