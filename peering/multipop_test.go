package peering

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/inet"
)

// multiPoPTestbed builds two backbone-connected PoPs with one neighbor
// each and an approved experiment.
func multiPoPTestbed(t *testing.T) (*Platform, *PoP, *PoP, *Client) {
	t.Helper()
	cfg := inet.DefaultGenConfig()
	cfg.Tier2 = 10
	cfg.Edges = 40
	topo := inet.Generate(cfg)

	p := NewPlatform(PlatformConfig{ASN: 47065, Topology: topo})
	popA, err := p.AddPoP(PoPConfig{
		Name: "amsix", RouterID: addr("198.51.100.1"),
		LocalPool: pfx("127.65.0.0/16"), ExpLAN: pfx("100.65.0.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	popB, err := p.AddPoP(PoPConfig{
		Name: "seattle", RouterID: addr("198.51.100.2"),
		LocalPool: pfx("127.66.0.0/16"), ExpLAN: pfx("100.66.0.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ConnectBackbone(popA, popB, 400e6, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := popA.ConnectTransit(1000, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := popB.ConnectPeer(10000, 20); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(Proposal{
		Name: "multi", Owner: "alice", Plan: "multi-pop study",
		Prefixes: []netip.Prefix{pfx("184.164.224.0/23")},
		ASNs:     []uint32{expASN},
	}); err != nil {
		t.Fatal(err)
	}
	key, err := p.Approve("multi", nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, popA, popB, NewClient("multi", key, expASN)
}

func TestClientAtTwoPoPsSimultaneously(t *testing.T) {
	_, popA, popB, c := multiPoPTestbed(t)
	for _, pop := range []*PoP{popA, popB} {
		if err := c.OpenTunnel(pop); err != nil {
			t.Fatal(err)
		}
		if err := c.StartBGP(pop.Name); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitEstablished(pop.Name, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Each PoP hands the client its own view: local neighbor plus the
	// remote PoP's neighbor via the backbone.
	probe := inet.PrefixForASN(100)
	waitFor(t, 5*time.Second, "both views converge", func() bool {
		return len(c.RoutesFor("amsix", probe)) == 2 && len(c.RoutesFor("seattle", probe)) == 2
	})
	// Next hops at each PoP come from that PoP's own local pool.
	for _, p := range c.RoutesFor("amsix", probe) {
		if !pfx("127.65.0.0/16").Contains(p.NextHop()) {
			t.Errorf("amsix next hop %s from wrong pool", p.NextHop())
		}
	}
	for _, p := range c.RoutesFor("seattle", probe) {
		if !pfx("127.66.0.0/16").Contains(p.NextHop()) {
			t.Errorf("seattle next hop %s from wrong pool", p.NextHop())
		}
	}
	// Announce different subnets at different PoPs — ingress engineering.
	if err := c.Announce("amsix", pfx("184.164.224.0/24")); err != nil {
		t.Fatal(err)
	}
	if err := c.Announce("seattle", pfx("184.164.225.0/24")); err != nil {
		t.Fatal(err)
	}
	topo := popA.platform.Topology()
	waitFor(t, 5*time.Second, "both announcements propagate", func() bool {
		return topo.Reachable(10000, pfx("184.164.224.0/24")) &&
			topo.Reachable(1000, pfx("184.164.225.0/24"))
	})
}

func TestTunnelDropWithdrawsRoutes(t *testing.T) {
	_, popA, _, c := multiPoPTestbed(t)
	if err := c.OpenTunnel(popA); err != nil {
		t.Fatal(err)
	}
	c.StartBGP("amsix")
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Announce("amsix", pfx("184.164.224.0/24")); err != nil {
		t.Fatal(err)
	}
	topo := popA.platform.Topology()
	waitFor(t, 5*time.Second, "announcement out", func() bool {
		return topo.Reachable(1000, pfx("184.164.224.0/24"))
	})
	// The tunnel dies (laptop closed, VPN dropped): the platform must
	// withdraw everything the experiment announced.
	if err := c.CloseTunnel("amsix"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "announcement withdrawn after tunnel drop", func() bool {
		rt := topo.RouteAt(1000, pfx("184.164.224.0/24"))
		if rt == nil {
			return true
		}
		for _, hop := range rt.Path {
			if hop == 47065 {
				return false
			}
		}
		return true
	})
	if popA.Router.ExperimentRoutes().Lookup(addr("184.164.224.1")) != nil {
		t.Error("experiment route survived tunnel drop")
	}
}

func TestRouteRefreshRedumpsTables(t *testing.T) {
	_, popA, _, c := multiPoPTestbed(t)
	if err := c.OpenTunnel(popA); err != nil {
		t.Fatal(err)
	}
	c.StartBGP("amsix")
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	probe := inet.PrefixForASN(100)
	waitFor(t, 5*time.Second, "initial routes", func() bool { return len(c.RoutesFor("amsix", probe)) >= 1 })

	pc, err := c.conn("amsix")
	if err != nil {
		t.Fatal(err)
	}
	// An RFC 2918 ROUTE-REFRESH for IPv4 unicast, written on the tunnel's
	// control channel the session runs over, as an experiment's BGP
	// daemon would send it.
	refresh := []byte{
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0, 23, bgp.MsgRouteRefresh, 0, 1, 0, 1,
	}
	before := pc.sess.UpdatesIn.Load()
	if _, err := pc.transport().Control().Write(refresh); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "table re-dump after refresh", func() bool {
		return pc.sess.UpdatesIn.Load() > before
	})
}
