package inet

import (
	"net/netip"
	"testing"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// diamond builds:
//
//	T1a --- T1b        (tier-1 peering)
//	 |       |
//	M1      M2         (mid-tier, customers of T1s)
//	 |       |
//	S1      S2         (stubs)
func diamond(t *testing.T) *Topology {
	t.Helper()
	topo := NewTopology()
	for _, asn := range []uint32{10, 11, 20, 21, 30, 31} {
		topo.AddAS(asn, "test")
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(topo.AddPeering(10, 11))
	must(topo.AddTransit(20, 10))
	must(topo.AddTransit(21, 11))
	must(topo.AddTransit(30, 20))
	must(topo.AddTransit(31, 21))
	return topo
}

func TestPropagationAcrossHierarchy(t *testing.T) {
	topo := diamond(t)
	if err := topo.Originate(30, pfx("10.30.0.0/24")); err != nil {
		t.Fatal(err)
	}
	// The opposite stub reaches it: S1 -> M1 -> T1a -> T1b -> M2 -> S2.
	rt := topo.RouteAt(31, pfx("10.30.0.0/24"))
	if rt == nil {
		t.Fatal("S2 has no route")
	}
	want := []uint32{31, 21, 11, 10, 20, 30}
	if !pathEqual(rt.Path, want) {
		t.Errorf("path = %v, want %v", rt.Path, want)
	}
	if rt.LearnedOver != RelProvider {
		t.Errorf("S2 learned over %s, want provider", rt.LearnedOver)
	}
}

func TestValleyFreeEnforced(t *testing.T) {
	// A route learned from a peer must not be exported to another peer
	// or provider. Add a second peer to T1a and check it does not get a
	// path through the T1a--T1b peering chain twice.
	topo := diamond(t)
	topo.AddAS(12, "tier1")
	if err := topo.AddPeering(10, 12); err != nil {
		t.Fatal(err)
	}
	if err := topo.Originate(21, pfx("10.21.0.0/24")); err != nil {
		t.Fatal(err)
	}
	// 21 is a customer of 11. 11 exports (customer route) to its peer 10.
	// 10 learned it over a PEER edge, so 10 must NOT export it to its
	// other peer 12.
	if rt := topo.RouteAt(12, pfx("10.21.0.0/24")); rt != nil {
		t.Errorf("peer-learned route leaked to another peer: %v", rt.Path)
	}
	// But 10's customer 20 does get it.
	if rt := topo.RouteAt(20, pfx("10.21.0.0/24")); rt == nil {
		t.Error("peer-learned route not exported to customer")
	}
}

func TestCustomerRoutePreferred(t *testing.T) {
	// M1 can reach a prefix originated by S1 (its customer) directly, and
	// hypothetically via providers; customer route must win.
	topo := diamond(t)
	if err := topo.Originate(30, pfx("10.30.0.0/24")); err != nil {
		t.Fatal(err)
	}
	rt := topo.RouteAt(20, pfx("10.30.0.0/24"))
	if rt == nil || rt.LearnedOver != RelCustomer {
		t.Fatalf("M1 route %+v, want customer-learned", rt)
	}
	if len(rt.Path) != 2 {
		t.Errorf("M1 path %v", rt.Path)
	}
}

func TestWithdrawReconverges(t *testing.T) {
	topo := diamond(t)
	if err := topo.Originate(30, pfx("10.30.0.0/24")); err != nil {
		t.Fatal(err)
	}
	if !topo.Reachable(31, pfx("10.30.0.0/24")) {
		t.Fatal("precondition: reachable")
	}
	if err := topo.Withdraw(30, pfx("10.30.0.0/24")); err != nil {
		t.Fatal(err)
	}
	for _, asn := range topo.ASNs() {
		if topo.Reachable(asn, pfx("10.30.0.0/24")) {
			t.Errorf("AS%d still has a route after withdraw", asn)
		}
	}
}

func TestCustomerCone(t *testing.T) {
	topo := diamond(t)
	cone := topo.CustomerCone(10)
	want := []uint32{10, 20, 30}
	if len(cone) != len(want) {
		t.Fatalf("cone = %v, want %v", cone, want)
	}
	for i := range want {
		if cone[i] != want[i] {
			t.Fatalf("cone = %v, want %v", cone, want)
		}
	}
	if got := topo.CustomerCone(30); len(got) != 1 || got[0] != 30 {
		t.Errorf("stub cone = %v", got)
	}
}

func TestInjectExternalPropagates(t *testing.T) {
	topo := diamond(t)
	// The platform (AS 47065, not in the topology) announces an
	// experiment prefix to M1 as a customer.
	err := topo.InjectExternal(20, pfx("184.164.224.0/24"), []uint32{47065, 61574}, RelCustomer)
	if err != nil {
		t.Fatal(err)
	}
	// Customer routes export everywhere: the whole topology learns it.
	for _, asn := range topo.ASNs() {
		rt := topo.RouteAt(asn, pfx("184.164.224.0/24"))
		if rt == nil {
			t.Errorf("AS%d did not learn the injected route", asn)
			continue
		}
		if rt.Path[len(rt.Path)-1] != 61574 {
			t.Errorf("AS%d origin %v", asn, rt.Path)
		}
	}
	// Catchment via M1 includes every AS (single injection point).
	if got := len(topo.ChoosersOf(pfx("184.164.224.0/24"), 20)); got != topo.Len() {
		t.Errorf("catchment %d, want %d", got, topo.Len())
	}
}

func TestInjectPeerOnlyReachesCone(t *testing.T) {
	topo := diamond(t)
	// Announce to T1a as a PEER: only T1a's customer cone learns it
	// (§4.2: "ASes in the customer cones of our peers receive
	// announcements made by experiments to peers").
	err := topo.InjectExternal(10, pfx("184.164.224.0/24"), []uint32{47065, 61574}, RelPeer)
	if err != nil {
		t.Fatal(err)
	}
	cone := map[uint32]bool{10: true, 20: true, 30: true}
	for _, asn := range topo.ASNs() {
		has := topo.Reachable(asn, pfx("184.164.224.0/24"))
		if cone[asn] && !has {
			t.Errorf("cone member AS%d missing the route", asn)
		}
		if !cone[asn] && has {
			t.Errorf("non-cone AS%d learned a peer-injected route", asn)
		}
	}
}

func TestPoisonedInjectionRejectedByTarget(t *testing.T) {
	topo := diamond(t)
	// Poison AS 21: the path already "contains" it, so 21 (and anything
	// that would route through the injection) rejects it.
	err := topo.InjectExternal(21, pfx("184.164.224.0/24"), []uint32{47065, 21, 61574}, RelCustomer)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Reachable(21, pfx("184.164.224.0/24")) {
		t.Error("poisoned AS accepted a path containing itself")
	}
	// Injecting the same prefix unpoisoned via 20 still works.
	if err := topo.InjectExternal(20, pfx("184.164.224.0/24"), []uint32{47065, 61574}, RelCustomer); err != nil {
		t.Fatal(err)
	}
	if !topo.Reachable(21, pfx("184.164.224.0/24")) {
		t.Error("AS 21 should learn the clean path via the topology")
	}
}

func TestRemoveExternal(t *testing.T) {
	topo := diamond(t)
	if err := topo.InjectExternal(20, pfx("184.164.224.0/24"), []uint32{47065, 61574}, RelCustomer); err != nil {
		t.Fatal(err)
	}
	if err := topo.RemoveExternal(20, pfx("184.164.224.0/24")); err != nil {
		t.Fatal(err)
	}
	for _, asn := range topo.ASNs() {
		if topo.Reachable(asn, pfx("184.164.224.0/24")) {
			t.Errorf("AS%d retains withdrawn injected route", asn)
		}
	}
}

func TestMoreSpecificWins(t *testing.T) {
	// Hijack-style: a /24 injection draws traffic from the covering /23
	// — modeled at the route level by distinct prefixes (LPM is the data
	// plane's job; here both must simply coexist).
	topo := diamond(t)
	if err := topo.InjectExternal(20, pfx("184.164.224.0/23"), []uint32{47065, 61574}, RelCustomer); err != nil {
		t.Fatal(err)
	}
	if err := topo.InjectExternal(21, pfx("184.164.224.0/24"), []uint32{47065, 61574}, RelCustomer); err != nil {
		t.Fatal(err)
	}
	if !topo.Reachable(31, pfx("184.164.224.0/23")) || !topo.Reachable(31, pfx("184.164.224.0/24")) {
		t.Error("covering and specific prefixes should both propagate")
	}
}

func TestGenerateValidates(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tier2 = 20
	cfg.Edges = 150
	topo := Generate(cfg)
	if err := Validate(topo); err != nil {
		t.Fatal(err)
	}
	if topo.Len() != cfg.Tier1+cfg.Tier2+cfg.Edges {
		t.Errorf("AS count %d", topo.Len())
	}
	// Deterministic for a fixed seed.
	topo2 := Generate(cfg)
	if topo2.Len() != topo.Len() {
		t.Error("generation not deterministic in size")
	}
	rt1 := topo.RouteAt(10000, PrefixForASN(100))
	rt2 := topo2.RouteAt(10000, PrefixForASN(100))
	if rt1 == nil || rt2 == nil || !pathEqual(rt1.Path, rt2.Path) {
		t.Error("generation not deterministic in routing")
	}
}

func TestGenerateTypeMix(t *testing.T) {
	cfg := DefaultGenConfig()
	topo := Generate(cfg)
	counts := topo.TypeCounts()
	total := 0
	for _, typ := range []string{"transit", "access", "content", "education", "enterprise"} {
		total += counts[typ]
	}
	if total != cfg.Edges+cfg.Tier2 { // tier-2s are labeled "transit" too
		t.Fatalf("edge-type total %d, want %d; counts=%v", total, cfg.Edges+cfg.Tier2, counts)
	}
	// The §4.2 proportions hold loosely (33/28/23%): check ordering.
	if !(counts["transit"] > counts["access"] && counts["access"] > counts["content"]) {
		t.Errorf("type mix ordering off: %v", counts)
	}
	frac := float64(counts["content"]) / float64(cfg.Edges)
	if frac < 0.15 || frac > 0.31 {
		t.Errorf("content fraction %.2f outside plausible band", frac)
	}
}

func TestFullReachabilityThroughTransit(t *testing.T) {
	// "Peering announcements can reach all ASes via transit providers"
	// (§4.2): inject as a customer of a tier-2 and verify every AS
	// learns it.
	cfg := DefaultGenConfig()
	cfg.Tier2 = 20
	cfg.Edges = 100
	topo := Generate(cfg)
	if err := topo.InjectExternal(1000, pfx("184.164.224.0/24"), []uint32{47065, 61574}, RelCustomer); err != nil {
		t.Fatal(err)
	}
	missing := 0
	for _, asn := range topo.ASNs() {
		if !topo.Reachable(asn, pfx("184.164.224.0/24")) {
			missing++
		}
	}
	if missing != 0 {
		t.Errorf("%d ASes cannot reach a transit-injected prefix", missing)
	}
}

// pathEqual reports whether two AS paths are identical.
func pathEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
