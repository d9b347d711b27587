package bgp

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/pipe"
)

func TestGracefulRestartCapabilityRoundTrip(t *testing.T) {
	in := &Capabilities{
		MP: []AFISAFI{IPv4Unicast, IPv6Unicast},
		GR: &GracefulRestart{
			Restarting: true,
			Time:       12 * time.Second,
			Families: []GRFamily{
				{Family: IPv4Unicast, Forwarding: true},
				{Family: IPv6Unicast, Forwarding: false},
			},
		},
	}
	out, err := parseCapabilities(marshalCapabilities(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.GR == nil {
		t.Fatal("GR capability lost in round trip")
	}
	if !out.GR.Restarting || out.GR.Time != 12*time.Second {
		t.Fatalf("GR header = %+v", out.GR)
	}
	if len(out.GR.Families) != 2 ||
		out.GR.Families[0] != (GRFamily{Family: IPv4Unicast, Forwarding: true}) ||
		out.GR.Families[1] != (GRFamily{Family: IPv6Unicast, Forwarding: false}) {
		t.Fatalf("GR families = %+v", out.GR.Families)
	}
}

func TestEndOfRIBRoundTrip(t *testing.T) {
	for _, fam := range []AFISAFI{IPv4Unicast, IPv6Unicast} {
		opts := &codecOpts{}
		b, err := marshalMessage(EndOfRIB(fam), opts)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := decodeBody(b[18], b[19:], opts, new(Update))
		if err != nil {
			t.Fatalf("%v: decode: %v", fam, err)
		}
		u, ok := msg.(*Update)
		if !ok {
			t.Fatalf("%v: decoded %T", fam, msg)
		}
		got, ok := u.EndOfRIBFamily()
		if !ok || got != fam {
			t.Fatalf("EndOfRIBFamily = %v, %v; want %v, true", got, ok, fam)
		}
	}
}

func TestOrdinaryUpdateIsNotEndOfRIB(t *testing.T) {
	u := &Update{
		Attrs: &PathAttrs{HasOrigin: true, ASPath: []ASPathSegment{{Type: ASSequence, ASNs: []uint32{65000}}},
			NextHop: netip.MustParseAddr("10.0.0.1")},
		NLRI: []NLRI{{Prefix: netip.MustParsePrefix("10.1.0.0/16")}},
	}
	if _, ok := u.EndOfRIBFamily(); ok {
		t.Fatal("route-bearing update classified as End-of-RIB")
	}
	wd := &Update{Withdrawn: []NLRI{{Prefix: netip.MustParsePrefix("10.1.0.0/16")}}}
	if _, ok := wd.EndOfRIBFamily(); ok {
		t.Fatal("withdraw classified as End-of-RIB")
	}
}

// pairSession runs two sessions over a pipe and returns them once both
// report Established.
func pairSession(t *testing.T, a, b Config) (*Session, *Session) {
	t.Helper()
	ca, cb := pipe.New()
	sa, sb := NewSession(ca, a), NewSession(cb, b)
	go sa.Run()
	go sb.Run()
	waitFor(t, "the sessions to establish", func() bool {
		return sa.State() == StateEstablished && sb.State() == StateEstablished
	})
	return sa, sb
}

func TestGracefulRestartNegotiationAndEndOfRIBDelivery(t *testing.T) {
	eor := make(chan AFISAFI, 2)
	a := Config{
		LocalASN: 65001, RemoteASN: 65002, LocalID: netip.MustParseAddr("1.1.1.1"),
		Families:        []AFISAFI{IPv4Unicast, IPv6Unicast},
		GracefulRestart: &GracefulRestartConfig{RestartTime: 9 * time.Second},
	}
	b := Config{
		LocalASN: 65002, RemoteASN: 65001, LocalID: netip.MustParseAddr("2.2.2.2"),
		Families:        []AFISAFI{IPv4Unicast, IPv6Unicast},
		GracefulRestart: &GracefulRestartConfig{RestartTime: 9 * time.Second},
		OnEndOfRIB:      func(f AFISAFI) { eor <- f },
	}
	sa, sb := pairSession(t, a, b)
	defer sa.Close()
	defer sb.Close()

	if !sa.GracefulRestartNegotiated() || !sb.GracefulRestartNegotiated() {
		t.Fatal("graceful restart not negotiated on both sides")
	}
	if got := sb.RemoteCaps().GR.Time; got != 9*time.Second {
		t.Fatalf("peer restart time = %v", got)
	}
	if err := sa.SendEndOfRIB(IPv4Unicast); err != nil {
		t.Fatal(err)
	}
	if err := sa.SendEndOfRIB(IPv6Unicast); err != nil {
		t.Fatal(err)
	}
	for _, want := range []AFISAFI{IPv4Unicast, IPv6Unicast} {
		select {
		case got := <-eor:
			if got != want {
				t.Fatalf("OnEndOfRIB got %v, want %v", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("End-of-RIB %v never delivered", want)
		}
	}
}

func TestGracefulRestartNotNegotiatedWithoutPeerSupport(t *testing.T) {
	a := Config{
		LocalASN: 65001, RemoteASN: 65002, LocalID: netip.MustParseAddr("1.1.1.1"),
		GracefulRestart: &GracefulRestartConfig{RestartTime: 9 * time.Second},
	}
	b := Config{LocalASN: 65002, RemoteASN: 65001, LocalID: netip.MustParseAddr("2.2.2.2")}
	sa, sb := pairSession(t, a, b)
	defer sa.Close()
	defer sb.Close()
	if sa.GracefulRestartNegotiated() {
		t.Fatal("negotiated GR against a peer that never advertised it")
	}
	if sb.GracefulRestartNegotiated() {
		t.Fatal("negotiated GR without local configuration")
	}
}
