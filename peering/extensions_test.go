package peering

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/ethernet"
	"repro/internal/inet"
)

func TestPoPBandwidthShaping(t *testing.T) {
	// A bandwidth-constrained site (§4.7): all experiment traffic into
	// the PoP is policed to the agreed rate.
	cfg := inet.DefaultGenConfig()
	cfg.Tier2 = 10
	cfg.Edges = 40
	topo := inet.Generate(cfg)
	p := NewPlatform(PlatformConfig{ASN: 47065, Topology: topo})
	pop, err := p.AddPoP(PoPConfig{
		Name: "constrained", RouterID: addr("198.51.100.9"),
		LocalPool: pfx("127.69.0.0/16"), ExpLAN: pfx("100.69.0.0/24"),
		BandwidthLimitBps: 8 * 2000, // 2 kB/s: a few frames of burst
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pop.ConnectTransit(1000, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(Proposal{Name: "bw", Owner: "o", Plan: "p",
		Prefixes: []netip.Prefix{pfx("184.164.226.0/24")}, ASNs: []uint32{expASN}}); err != nil {
		t.Fatal(err)
	}
	key, err := p.Approve("bw", nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient("bw", key, expASN)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	c.StartBGP("constrained")
	if err := c.WaitEstablished("constrained", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	probe := inet.PrefixForASN(100)
	waitFor(t, 5*time.Second, "routes", func() bool { return len(c.RoutesFor("constrained", probe)) >= 1 })

	// Blast 100 sizeable packets: the shaper must drop most of them.
	payload := make([]byte, 500)
	for i := 0; i < 100; i++ {
		pkt := &ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP,
			Src: addr("184.164.226.1"), Dst: probe.Addr().Next(), Payload: payload}
		if err := c.SendIP("constrained", 0, pkt); err != nil {
			t.Logf("send %d: %v", i, err)
		}
	}
	// Tunnel frame delivery is asynchronous: wait until the router's
	// experiment interface has seen (or policed) every frame.
	expIfc := pop.Router.Interface("exp0")
	waitFor(t, 5*time.Second, "frames processed", func() bool {
		return expIfc.RxFrames.Load()+expIfc.RxDrops.Load() >= 101
	})
	fwd := pop.Router.Forwarded.Load()
	if fwd >= 50 {
		t.Errorf("shaper let %d of 100 oversized frames through", fwd)
	}
	if fwd == 0 {
		t.Error("shaper blocked everything, including the burst")
	}
}

func TestTracerouteShowsPrimaryAddresses(t *testing.T) {
	_, pop, c := testbed(t)
	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	c.StartBGP("amsix")
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	probe := inet.PrefixForASN(100)
	waitFor(t, 5*time.Second, "routes", func() bool { return len(c.RoutesFor("amsix", probe)) == 2 })

	// Probe with TTL 1 and 2, as traceroute does.
	dst := probe.Addr().Next()
	var hops [2]probeReply
	for i := range hops {
		ttl := uint8(i + 1)
		r, _, err := c.probe("amsix", 1, dst, ttl, 0x7472, uint16(ttl), 5*time.Second)
		if err != nil {
			t.Fatalf("probe at ttl %d: %v", ttl, err)
		}
		hops[i] = r
	}
	// Hop 1 is the PoP router, answering from the experiment-LAN
	// interface's PRIMARY address (the §5 behavior).
	rtrAddr := pop.Router.Interface("exp0").PrimaryAddr()
	if hops[0].From != rtrAddr || hops[0].Reached {
		t.Errorf("hop 1 = %+v, want router primary %s", hops[0], rtrAddr)
	}
	if !hops[1].Reached || hops[1].From != dst {
		t.Errorf("hop 2 = %+v, want destination %s", hops[1], dst)
	}
}

func TestAppendixADebuggingWorkflow(t *testing.T) {
	// Appendix A end to end: an experiment's announcement is not globally
	// reachable because a network upstream carries a stale filter; the
	// troubleshooting tool identifies the edge and the reason.
	p, pop, c := testbed(t)
	topo := p.Topology()

	// AS 1000 is the PoP's transit; its tier-1 provider silently filters
	// the experiment prefix.
	provider := topo.AS(1000).Providers[0]
	if err := topo.BlockPrefixAt(provider, pfx("184.164.224.0/24")); err != nil {
		t.Fatal(err)
	}

	if err := c.OpenTunnel(pop); err != nil {
		t.Fatal(err)
	}
	c.StartBGP("amsix")
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Announce("amsix", pfx("184.164.224.0/24"), ToNeighbors(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "transit learns the prefix", func() bool {
		return topo.Reachable(1000, pfx("184.164.224.0/24"))
	})
	waitFor(t, 5*time.Second, "the platform to quiesce", p.quiesced)

	// The looking glass shows presence/absence but cannot explain it.
	lgHave := topo.LookingGlass(1000, pfx("184.164.224.0/24"))
	lgMiss := topo.LookingGlass(provider, pfx("184.164.224.0/24"))
	if !strings.Contains(lgHave, "*>") || !strings.Contains(lgMiss, "not in table") {
		t.Fatalf("looking glass:\n%s\n%s", lgHave, lgMiss)
	}

	// Diagnose pinpoints the filtering edge.
	found := false
	for _, g := range topo.Diagnose(pfx("184.164.224.0/24")) {
		if g.To == provider && strings.Contains(g.Reason, "import filter") {
			found = true
		}
	}
	if !found {
		t.Fatalf("filter edge toward AS%d not identified:\n%s",
			provider, topo.DiagnoseReport(pfx("184.164.224.0/24")))
	}
}
