package peering

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"repro/internal/inet"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// teSoakTopology builds a controllable Internet for the closed-loop
// soak: 10 peered tier-1s, each with one customer via at every PoP and
// a tail of single-homed stubs per via. Stub counts skew toward pop01
// and via ASNs within each tier-1 descend along the PoP order, so every
// tier-1's own (cone-heavy) traffic initially enters at pop05 — a
// deliberately lopsided starting catchment the controller must fix.
func teSoakTopology(t *testing.T) (*inet.Topology, map[string][]uint32) {
	t.Helper()
	top := inet.NewTopology()
	tier1s := make([]uint32, 0, 10)
	for k := 0; k < 10; k++ {
		asn := uint32(10 * (k + 1))
		top.AddAS(asn, "transit")
		tier1s = append(tier1s, asn)
	}
	for i := 0; i < len(tier1s); i++ {
		for j := i + 1; j < len(tier1s); j++ {
			if err := top.AddPeering(tier1s[i], tier1s[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	popNames := []string{"pop01", "pop02", "pop03", "pop04", "pop05"}
	stubCounts := []int{6, 4, 3, 2, 0}
	viasByPoP := make(map[string][]uint32)
	stub := uint32(30000)
	for k, t1 := range tier1s {
		for p, pop := range popNames {
			// Descending ASN along the PoP order: each tier-1 prefers its
			// lowest-ASN via, so shed weight drains pop05 → pop01.
			via := uint32(1000 + 10*k + (len(popNames) - 1 - p))
			top.AddAS(via, "transit")
			if err := top.AddTransit(via, t1); err != nil {
				t.Fatal(err)
			}
			viasByPoP[pop] = append(viasByPoP[pop], via)
			for i := 0; i < stubCounts[p]; i++ {
				top.AddAS(stub, "access")
				if err := top.AddTransit(stub, via); err != nil {
					t.Fatal(err)
				}
				stub++
			}
		}
	}
	return top, viasByPoP
}

// teSoakTestbed stands up the 5-PoP platform over the soak topology
// with a full backbone mesh, one transit session per via, and an
// approved experiment holding an open tunnel and an established BGP
// session at every PoP.
func teSoakTestbed(t *testing.T, reg *telemetry.Registry) (*Platform, *Client, []string) {
	t.Helper()
	top, viasByPoP := teSoakTopology(t)
	anycast := pfx("184.164.224.0/24")
	p := NewPlatform(PlatformConfig{
		ASN: 47065, Topology: top,
		TE: &TEConfig{
			Prefix: anycast, Clients: 100000, Seed: 47065,
			Tolerance: 0.10, MaxRounds: 64, Patience: 12,
			SettleTimeout: 30 * time.Second, Registry: reg,
		},
	})
	// The controller re-announces per-PoP versions every round; lift the
	// default daily budget out of the way (144 would cap the soak).
	p.Engine.DailyUpdateLimit = 5000

	popNames := []string{"pop01", "pop02", "pop03", "pop04", "pop05"}
	pops := make([]*PoP, len(popNames))
	for i, name := range popNames {
		pop, err := p.AddPoP(PoPConfig{
			Name:      name,
			RouterID:  addr(fmt.Sprintf("198.51.100.%d", i+1)),
			LocalPool: pfx(fmt.Sprintf("127.%d.0.0/16", 65+i)),
			ExpLAN:    pfx(fmt.Sprintf("100.%d.0.0/24", 65+i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		pops[i] = pop
	}
	for i := 0; i < len(pops); i++ {
		for j := i + 1; j < len(pops); j++ {
			if err := p.ConnectBackbone(pops[i], pops[j], 400e6, 10*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, name := range popNames {
		for _, via := range viasByPoP[name] {
			if _, err := pops[i].ConnectTransit(via, 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Submit(Proposal{
		Name: "te-soak", Owner: "carol", Plan: "closed-loop anycast TE",
		Prefixes: []netip.Prefix{pfx("184.164.224.0/23")},
		ASNs:     []uint32{expASN},
	}); err != nil {
		t.Fatal(err)
	}
	key, err := p.Approve("te-soak", nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient("te-soak", key, expASN)
	for i, name := range popNames {
		if err := c.OpenTunnel(pops[i]); err != nil {
			t.Fatal(err)
		}
		if err := c.StartBGP(name); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitEstablished(name, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return p, c, popNames
}

// TestTEControllerSoak is the acceptance soak: on a 5-PoP platform with
// a 100k-client cone-weighted population, the controller must move the
// catchment from a ≥2:1 imbalance to within 10% of equal per-PoP
// targets using only platform knobs, with every action visible in
// telemetry and in the policy engine's audit log.
func TestTEControllerSoak(t *testing.T) {
	reg := telemetry.NewRegistry()
	p, c, popNames := teSoakTestbed(t, reg)
	te, err := p.NewTEController(c)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, pop := range te.Populations() {
		total += pop.Clients
	}
	if total != 100000 {
		t.Fatalf("population %d clients, want 100000", total)
	}

	res, err := te.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rounds {
		t.Logf("round %d: imbalance %.3f shares %v actions %d",
			r.N, r.Imbalance, r.Shares, len(r.Actions))
	}
	if !res.Converged {
		t.Fatalf("controller did not converge: %+v", res.Certificate)
	}

	// The starting catchment must be genuinely lopsided: worst-to-best
	// PoP ratio of at least 2:1.
	first := res.Rounds[0]
	maxShare, minShare := 0.0, 1.0
	for _, pop := range popNames {
		s := first.Shares[pop]
		if s > maxShare {
			maxShare = s
		}
		if s < minShare {
			minShare = s
		}
	}
	if maxShare < 2*minShare {
		t.Errorf("initial shares %v not a 2:1 imbalance", first.Shares)
	}
	last := res.Rounds[len(res.Rounds)-1]
	if last.Imbalance > 0.10 {
		t.Errorf("final imbalance %.3f above tolerance", last.Imbalance)
	}
	for _, pop := range popNames {
		if s := last.Shares[pop]; s < 0.2*0.9-1e-9 || s > 0.2*1.1+1e-9 {
			t.Errorf("%s final share %.3f outside 0.18..0.22", pop, s)
		}
	}

	// Every action the controller took must be visible in telemetry…
	var totalActions int
	for _, r := range res.Rounds {
		totalActions += len(r.Actions)
	}
	if totalActions == 0 {
		t.Fatal("controller converged without acting")
	}
	var counted float64
	for _, s := range reg.Snapshot() {
		if s.Name == "te_actions_total" {
			counted += s.Value
		}
	}
	if int(counted) != totalActions {
		t.Errorf("te_actions_total %d, round history has %d", int(counted), totalActions)
	}
	var converged float64 = -1
	for _, s := range reg.Snapshot() {
		if s.Name == "te_converged" {
			converged = s.Value
		}
	}
	if converged != 1 {
		t.Errorf("te_converged gauge %v, want 1", converged)
	}

	// …and in the audit log: the actuator works through Client announce
	// and withdraw calls, each of which passes the policy engine. The
	// initial announcement fan-out covers every PoP; each steering
	// action re-announces (or withdraws) at its PoP.
	anycast := pfx("184.164.224.0/24")
	waitFor(t, 5*time.Second, "audit entries for all steering actions", func() bool {
		return len(auditFor(p, anycast)) >= totalActions+len(popNames)
	})
	byPoP := make(map[string]int)
	for _, e := range auditFor(p, anycast) {
		if e.Action == policy.ActionReject {
			t.Errorf("steering update rejected: %s", e)
		}
		byPoP[e.PoP]++
	}
	for _, pop := range popNames {
		if byPoP[pop] == 0 {
			t.Errorf("no audit entries at %s", pop)
		}
	}

	// Status after the run reflects the retained result.
	st := te.Status()
	if st.Running || !st.Converged || len(st.Rounds) != len(res.Rounds) {
		t.Errorf("status %+v inconsistent with result", st)
	}
}

// auditFor filters the engine's audit log to one prefix.
func auditFor(p *Platform, prefix netip.Prefix) []policy.AuditEntry {
	var out []policy.AuditEntry
	for _, e := range p.Engine.Audit() {
		if e.Prefix == prefix {
			out = append(out, e)
		}
	}
	return out
}
