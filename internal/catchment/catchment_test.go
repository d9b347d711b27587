package catchment

import (
	"net/netip"
	"testing"

	"repro/internal/inet"
)

const platformASN = 47065

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// steerTopology builds a small controllable Internet:
//
//	T1, T2 (tier-1 peers)
//	 ├─ via11, via12 customers of T1; via21, via22 customers of T2
//	 └─ each via has 3 single-homed stub customers
//
// The platform attaches as a customer of every via (ConnectTransit
// semantics), so injections arrive customer-learned and flood globally.
func steerTopology(t testing.TB) (*inet.Topology, []uint32) {
	t.Helper()
	top := inet.NewTopology()
	top.AddAS(10, "transit")
	top.AddAS(20, "transit")
	if err := top.AddPeering(10, 20); err != nil {
		t.Fatal(err)
	}
	vias := []uint32{101, 102, 201, 202}
	parents := map[uint32]uint32{101: 10, 102: 10, 201: 20, 202: 20}
	stub := uint32(1000)
	for _, via := range vias {
		top.AddAS(via, "transit")
		if err := top.AddTransit(via, parents[via]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			top.AddAS(stub, "access")
			if err := top.AddTransit(stub, via); err != nil {
				t.Fatal(err)
			}
			stub++
		}
	}
	return top, vias
}

// inject announces the anycast prefix into the topology at each via, as
// the platform's speakers would after an experiment announcement.
func inject(t testing.TB, top *inet.Topology, prefix netip.Prefix, vias []uint32, prepend map[uint32]int) {
	t.Helper()
	const expASN = 61574
	for _, via := range vias {
		path := []uint32{platformASN, expASN}
		for i := 0; i < prepend[via]; i++ {
			path = append(path, expASN)
		}
		if err := top.InjectExternal(via, prefix, path, inet.RelCustomer); err != nil {
			t.Fatal(err)
		}
	}
}

func testViews(vias []uint32) []PoPView {
	// Two PoPs: pop01 hosts vias 101, 102; pop02 hosts 201, 202.
	mk := func(pop string, asns ...uint32) PoPView {
		v := PoPView{PoP: pop, Announced: true}
		for i, asn := range asns {
			v.Neighbors = append(v.Neighbors, NeighborRef{PoP: pop, ID: uint32(i + 1), ASN: asn})
		}
		return v
	}
	_ = vias
	return []PoPView{mk("pop01", 101, 102), mk("pop02", 201, 202)}
}

func TestResolveAssignsByEntryNeighbor(t *testing.T) {
	top, vias := steerTopology(t)
	anycast := pfx("184.164.224.0/24")
	inject(t, top, anycast, vias, nil)

	pops := []Population{}
	for _, asn := range top.ASNs() {
		pops = append(pops, Population{ASN: asn, Clients: 10})
	}
	m := Resolve(top, platformASN, anycast, testViews(vias), pops)

	if m.Unreachable != 0 {
		t.Fatalf("unreachable clients: %d", m.Unreachable)
	}
	// Every stub must land at the PoP hosting its via: stubs of 101/102
	// at pop01, stubs of 201/202 at pop02.
	for asn, a := range m.Assignments {
		if asn >= 1000 && asn < 1006 && a.PoP != "pop01" {
			t.Errorf("stub %d landed at %q via AS%d, want pop01", asn, a.PoP, a.Via)
		}
		if asn >= 1006 && asn < 1012 && a.PoP != "pop02" {
			t.Errorf("stub %d landed at %q via AS%d, want pop02", asn, a.PoP, a.Via)
		}
	}
	// The vias themselves route directly.
	for _, via := range vias {
		if m.Assignments[via].Via != via {
			t.Errorf("via %d entered through AS%d, want itself", via, m.Assignments[via].Via)
		}
	}
	if got := m.Total - m.Unreachable; got != len(pops)*10 {
		t.Errorf("reachable weight %d, want %d", got, len(pops)*10)
	}
	// Shares sum to 1.
	var sum float64
	for _, s := range m.Shares() {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum %.4f", sum)
	}
}

func TestResolveUnreachableWithoutInjection(t *testing.T) {
	top, vias := steerTopology(t)
	anycast := pfx("184.164.224.0/24")
	pops := []Population{{ASN: 1000, Clients: 5}}
	m := Resolve(top, platformASN, anycast, testViews(vias), pops)
	if m.Unreachable != 5 {
		t.Fatalf("unreachable = %d, want 5", m.Unreachable)
	}
	if len(m.PoPClients) != 0 {
		t.Fatalf("PoPClients = %v, want empty", m.PoPClients)
	}
}

func TestViaWeightsAndImbalance(t *testing.T) {
	top, vias := steerTopology(t)
	anycast := pfx("184.164.224.0/24")
	inject(t, top, anycast, vias, nil)
	pops := []Population{}
	for _, asn := range top.ASNs() {
		pops = append(pops, Population{ASN: asn, Clients: 1})
	}
	m := Resolve(top, platformASN, anycast, testViews(vias), pops)

	w1 := m.ViaWeightsOf("pop01", pops)
	if len(w1) == 0 {
		t.Fatal("no via weights at pop01")
	}
	var total1 int
	for _, w := range w1 {
		total1 += w
	}
	if total1 != m.PoPClients["pop01"] {
		t.Errorf("via weights sum %d != pop clients %d", total1, m.PoPClients["pop01"])
	}

	// Imbalance against a deliberately skewed target.
	imb := m.Imbalance(map[string]float64{"pop01": 0.99, "pop02": 0.01})
	if imb <= 0.10 {
		t.Errorf("imbalance %.3f suspiciously low for a skewed target", imb)
	}
	// And near zero against the measured shares themselves.
	if imb := m.Imbalance(m.Shares()); imb > 1e-9 {
		t.Errorf("self-imbalance %.6f, want 0", imb)
	}
}

func TestPrependSteersChoosers(t *testing.T) {
	// Prepending at 101's injection makes T1 (a multi-homed chooser)
	// prefer 102, without moving 101's single-homed stubs.
	top, vias := steerTopology(t)
	anycast := pfx("184.164.224.0/24")
	inject(t, top, anycast, vias, nil)

	before := top.RouteAt(10, anycast)
	if before == nil {
		t.Fatal("T1 has no route")
	}
	inject(t, top, anycast, []uint32{101}, map[uint32]int{101: 3})
	after := top.RouteAt(10, anycast)
	if after == nil {
		t.Fatal("T1 lost its route")
	}
	if len(after.Path) >= 2 && after.Path[1] == 101 {
		t.Errorf("T1 still enters via 101 after prepend: path %v", after.Path)
	}
	// 101's stubs stay: single-homed clients have no alternative.
	if rt := top.RouteAt(1000, anycast); rt == nil || rt.Path[1] != 101 {
		t.Errorf("stub 1000 moved or lost route: %v", rt)
	}
}

func TestGeneratePopulationsDeterministic(t *testing.T) {
	top, _ := steerTopology(t)
	a := GeneratePopulations(top, 100000, 42)
	b := GeneratePopulations(top, 100000, 42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("population %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	total := 0
	for _, p := range a {
		total += p.Clients
	}
	if total != 100000 {
		t.Errorf("total %d, want 100000", total)
	}
	c := GeneratePopulations(top, 100000, 43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical populations")
	}
	// Cone weighting: a tier-1 (cone 7+) must out-weigh any stub.
	byASN := make(map[uint32]int)
	for _, p := range a {
		byASN[p.ASN] = p.Clients
	}
	if byASN[10] <= byASN[1000] {
		t.Errorf("tier-1 weight %d not above stub weight %d", byASN[10], byASN[1000])
	}
}
