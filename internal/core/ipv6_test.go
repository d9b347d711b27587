package core

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/policy"
)

// announceV6 sends an IPv6 route from a test peer via MP_REACH.
func (p *testPeer) announceV6(prefix string, asns []uint32, nexthop string) {
	p.t.Helper()
	attrs := &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true,
		ASPath:    []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
		MPNextHop: ip(nexthop),
	}
	u := &bgp.Update{Attrs: attrs, MPReach: []bgp.NLRI{{Prefix: pfx(prefix)}}}
	if err := p.sess.Send(u); err != nil {
		p.t.Fatalf("announce v6: %v", err)
	}
}

// v6routes tracks MP_REACH/MP_UNREACH state at the peer.
func (p *testPeer) v6routes() map[bgp.NLRI]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[bgp.NLRI]string)
	for _, u := range p.updates {
		for _, w := range u.MPUnreach {
			delete(out, w)
		}
		for _, n := range u.MPReach {
			out[n] = u.Attrs.MPNextHop.String()
		}
	}
	return out
}

func TestIPv6ControlPlaneDelegation(t *testing.T) {
	f := newFig1(t)
	// N1 announces an IPv6 prefix over MP-BGP.
	f.n1.announceV6("2001:db8:1000::/36", []uint32{n1ASN}, "2001:db8::1")
	waitFor(t, 5*time.Second, "v6 route in N1's table", func() bool {
		return f.nbr1.Table.PathCount() == 1
	})

	x1 := f.connectExperiment(t, "X1", true)
	waitFor(t, 5*time.Second, "v6 route at experiment", func() bool {
		_, ok := x1.v6routes()[bgp.NLRI{Prefix: pfx("2001:db8:1000::/36"), ID: 1}]
		return ok
	})
	// The next hop exposed to the experiment is the per-neighbor v6
	// local address derived from the neighbor's global IP.
	nh := x1.v6routes()[bgp.NLRI{Prefix: pfx("2001:db8:1000::/36"), ID: 1}]
	if nh != localIP6(f.nbr1.GlobalIP).String() {
		t.Errorf("v6 next hop %s, want %s", nh, localIP6(f.nbr1.GlobalIP))
	}

	// Withdrawal propagates via MP_UNREACH with the same path ID.
	wd := &bgp.Update{Attrs: &bgp.PathAttrs{}, MPUnreach: []bgp.NLRI{{Prefix: pfx("2001:db8:1000::/36")}}}
	if err := f.n1.sess.Send(wd); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "v6 withdraw at experiment", func() bool {
		_, ok := x1.v6routes()[bgp.NLRI{Prefix: pfx("2001:db8:1000::/36"), ID: 1}]
		return !ok
	})
}

func TestIPv6ExperimentAnnouncement(t *testing.T) {
	f := newFig1(t)
	// Re-register X1 with a v6 allocation.
	f.engine.Register(&policy.Experiment{
		Name:     "X1",
		Prefixes: []netip.Prefix{pfx("10.1.0.0/24"), pfx("2804:269c::/32")},
		ASNs:     []uint32{expASN},
	})

	x1 := f.connectExperiment(t, "X1", true)
	attrs := &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true,
		ASPath:    []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{expASN}}},
		MPNextHop: ip("fd00::1"),
	}
	u := &bgp.Update{Attrs: attrs, MPReach: []bgp.NLRI{{Prefix: pfx("2804:269c::/32")}}}
	if err := x1.sess.Send(u); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "v6 announcement at N1", func() bool {
		_, ok := f.n1.v6routes()[bgp.NLRI{Prefix: pfx("2804:269c::/32")}]
		return ok
	})
	// Hijacking foreign v6 space is still rejected.
	u2 := &bgp.Update{Attrs: attrs, MPReach: []bgp.NLRI{{Prefix: pfx("2001:4860::/32")}}}
	if err := x1.sess.Send(u2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, ok := f.n1.v6routes()[bgp.NLRI{Prefix: pfx("2001:4860::/32")}]; ok {
		t.Fatal("v6 hijack propagated")
	}
}
