package eval

import (
	"net/netip"
	"testing"
	"testing/quick"

	"repro/internal/bgp"
)

func TestPrefixForUnique(t *testing.T) {
	seen := make(map[netip.Prefix]bool)
	for i := 0; i < 100000; i++ {
		p := prefixFor(i)
		if seen[p] {
			t.Fatalf("duplicate prefix %s at index %d", p, i)
		}
		seen[p] = true
		if !p.IsValid() {
			t.Fatalf("invalid prefix at %d", i)
		}
	}
}

func TestPrefixForBeyond24Space(t *testing.T) {
	big := prefixFor(1<<21 + 5)
	if big.Bits() != 25 {
		t.Errorf("overflow prefix bits = %d, want 25", big.Bits())
	}
}

func TestPrefixForProperty(t *testing.T) {
	fn := func(a, b uint16) bool {
		i, j := int(a), int(b)
		return (i == j) == (prefixFor(i) == prefixFor(j))
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestRoutesDeterministic(t *testing.T) {
	nh := netip.MustParseAddr("192.0.2.1")
	g1 := NewGenerator(7, 65001, nh)
	g2 := NewGenerator(7, 65001, nh)
	r1, r2 := g1.Routes(100), g2.Routes(100)
	for i := range r1 {
		if r1[i].Prefix != r2[i].Prefix {
			t.Fatalf("prefix diverged at %d", i)
		}
		f1, f2 := r1[i].Attrs.ASPathFlat(), r2[i].Attrs.ASPathFlat()
		if len(f1) != len(f2) {
			t.Fatalf("path diverged at %d", i)
		}
	}
}

func TestRoutesShape(t *testing.T) {
	g := NewGenerator(7, 65001, netip.MustParseAddr("192.0.2.1"))
	for _, r := range g.Routes(500) {
		if r.Attrs.FirstASN() != 65001 {
			t.Fatalf("first ASN %d", r.Attrs.FirstASN())
		}
		if l := r.Attrs.ASPathLen(); l < 3 || l > 7 {
			t.Fatalf("path length %d out of band", l)
		}
		if !r.Attrs.NextHop.IsValid() {
			t.Fatal("missing next hop")
		}
	}
}

func TestStreamMixAndValidity(t *testing.T) {
	g := NewGenerator(7, 65001, netip.MustParseAddr("192.0.2.1"))
	events := g.Stream(100, 2000)
	if len(events) != 2000 {
		t.Fatalf("events = %d", len(events))
	}
	withdraws := 0
	for _, e := range events {
		u := e.Update()
		if e.Kind == KindWithdraw {
			withdraws++
			if len(u.Withdrawn) != 1 {
				t.Fatal("withdraw event without withdrawn NLRI")
			}
		} else if len(u.NLRI) != 1 || u.Attrs == nil {
			t.Fatal("announce event malformed")
		}
	}
	frac := float64(withdraws) / 2000
	if frac < 0.05 || frac > 0.2 {
		t.Errorf("withdraw fraction %.2f outside expected band", frac)
	}
}

func TestStreamEventsEncode(t *testing.T) {
	// Every generated update must survive a wire round trip: the Fig. 6b
	// bench feeds these through real sessions.
	g := NewGenerator(9, 65002, netip.MustParseAddr("192.0.2.2"))
	for _, e := range g.Stream(50, 200) {
		u := e.Update()
		if u.Attrs == nil {
			u.Attrs = &bgp.PathAttrs{}
		}
	}
}

func TestIXProfiles(t *testing.T) {
	if len(PaperIXPs) != 4 {
		t.Fatal("expected the four §4.2 exchanges")
	}
	ams := PaperIXPs[0]
	if ams.Members != 854 || ams.Bilateral != 106 || ams.RouteServers != 4 {
		t.Errorf("AMS-IX profile %+v", ams)
	}
	small := ams.Scale(10)
	if small.Members != 85 || small.Bilateral != 10 {
		t.Errorf("scaled profile %+v", small)
	}
	if one := ams.Scale(100000); one.Members != 1 || one.Bilateral != 1 {
		t.Errorf("floor scaling %+v", one)
	}
	if same := ams.Scale(1); same != ams {
		t.Error("factor 1 should be identity")
	}
}

// Update converts an event into a BGP UPDATE message.
func (e UpdateEvent) Update() *bgp.Update {
	if e.Kind == KindWithdraw {
		return &bgp.Update{Withdrawn: []bgp.NLRI{{Prefix: e.Route.Prefix}}}
	}
	return &bgp.Update{Attrs: e.Route.Attrs, NLRI: []bgp.NLRI{{Prefix: e.Route.Prefix}}}
}
