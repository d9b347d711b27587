package peering

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/inet"
	"repro/internal/ixp"
	"repro/internal/rib"
)

// TestSoakQuarterScaleAMSIX builds a quarter-scale AMS-IX PoP — ~213
// members, 4 route servers, dozens of bilateral sessions — runs three
// concurrent experiments, and exercises announcements, withdrawal, and
// per-packet forwarding under the load. Skipped with -short.
func TestSoakQuarterScaleAMSIX(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cfg := inet.DefaultGenConfig()
	cfg.Tier2 = 40
	cfg.Edges = 300
	topo := inet.Generate(cfg)

	p := NewPlatform(PlatformConfig{ASN: 47065, Topology: topo})
	pop, err := p.AddPoP(PoPConfig{
		Name: "amsix", RouterID: addr("198.51.100.1"),
		LocalPool: pfx("127.65.0.0/16"), ExpLAN: pfx("100.65.0.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	profile := struct{ members, bilateral, rs, routes int }{213, 26, 4, 10}
	x := ixp.New("AMS-IX", 64700, topo, pfx("80.249.208.0/21"))
	for i := 0; i < profile.members; i++ {
		if _, err := x.AddMember(uint32(10000+i), i < profile.bilateral); err != nil {
			t.Fatal(err)
		}
	}
	if err := pop.ConnectIXP(x, profile.rs, profile.routes); err != nil {
		t.Fatal(err)
	}
	if _, err := pop.ConnectTransit(1000, 40); err != nil {
		t.Fatal(err)
	}

	// Expected paths: 4 RS x 213 members x 10 + 26 bilateral x 10 + 40.
	want := profile.rs*profile.members*profile.routes + profile.bilateral*profile.routes + 40
	waitFor(t, 60*time.Second, "the route servers' and neighbors' tables", p.quiesced)
	if got := pop.Router.RouteCount(); got != want {
		t.Fatalf("routes = %d, want %d", got, want)
	}
	// Experiments see the best route per (neighbor, prefix).
	expView := 0
	for _, n := range pop.Router.Neighbors() {
		n.Table.WalkBest(func(netip.Prefix, *rib.Path) bool { expView++; return true })
	}
	t.Logf("loaded %d paths (%d per-neighbor prefixes) across %d neighbors",
		pop.Router.RouteCount(), expView, len(pop.Router.Neighbors()))

	// Three concurrent experiments announce, see routes, and forward.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("soak%d", i)
		prefix := netip.MustParsePrefix(fmt.Sprintf("184.164.%d.0/24", 224+i))
		if err := p.Submit(Proposal{Name: name, Owner: "soak", Plan: "scale",
			Prefixes: []netip.Prefix{prefix}, ASNs: []uint32{uint32(61574 + i)}}); err != nil {
			t.Fatal(err)
		}
		key, err := p.Approve(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(name, key, uint32(61574+i))
		if err := c.OpenTunnel(pop); err != nil {
			t.Fatal(err)
		}
		if err := c.StartBGP("amsix"); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitEstablished("amsix", 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := c.Announce("amsix", prefix); err != nil {
			t.Fatal(err)
		}
		// Every experiment's view converges to best-per-neighbor-prefix.
		waitFor(t, 60*time.Second, "the experiment's table dump", p.quiesced)
		if got := len(c.Routes("amsix")); got != expView {
			t.Fatalf("experiment %s sees %d routes, want %d", name, got, expView)
		}
		// Forward a packet via the transit and via a route server.
		dst := inet.PrefixForASN(100).Addr().Next()
		if _, err := c.Ping("amsix", pop.Router.Neighbor("as1000").ID, dst, uint16(i), 1, 10*time.Second); err != nil {
			t.Fatalf("%s ping via transit: %v", name, err)
		}
	}
	t.Logf("forwarded=%d dropped=%d", pop.Router.Forwarded.Load(), pop.Router.DroppedNoRoute.Load())
}
