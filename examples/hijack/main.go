// Security study: the class of experiments Peering is known for (§7.1
// and the RAPTOR/Bitcoin/TLS line of work). Four parts:
//
//  1. A CONTROLLED hijack of the experiment's own address space — a
//     more-specific announcement from a second PoP draws the catchment,
//     with ground truth measured in the synthetic Internet.
//  2. An UNAUTHORIZED hijack of someone else's prefix — rejected by the
//     enforcement engine and attributed in the audit log (§4.7).
//  3. BGP poisoning — announcing a path that names a transit AS makes
//     that AS reject the route, revealing the backup paths the rest of
//     the Internet falls back to (the hidden-route measurement of §7.1).
//  4. RPKI origin validation — the same sub-prefix hijack, attempted by
//     a rogue AS in the wild rather than through the platform, is
//     dropped at import by ROV-deploying ASes and its catchment
//     collapses as deployment grows; a route leak that forges a path to
//     the true origin passes ROV and is stopped by Peerlock instead.
//  5. Forensics replay — the whole study streams into the durable
//     history store; after the platform shuts down, the hijack timeline
//     is reconstructed from the on-disk segment log alone.
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"os"
	"time"

	"repro/internal/history"
	"repro/internal/inet"
	"repro/internal/policy"
	"repro/internal/rpki"
	"repro/peering"
)

func main() {
	cfg := inet.DefaultGenConfig()
	cfg.Tier2 = 12
	cfg.Edges = 80
	topo := inet.Generate(cfg)

	histDir, err := os.MkdirTemp("", "hijack-history-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(histDir)
	hist, err := history.Open(history.Config{Dir: histDir})
	if err != nil {
		log.Fatal(err)
	}

	platform := peering.NewPlatform(peering.PlatformConfig{ASN: 47065, Topology: topo, History: hist})
	popA := mustPoP(platform, "amsix", "127.65.0.0/16", "100.65.0.0/24", "198.51.100.1")
	popB := mustPoP(platform, "seattle", "127.66.0.0/16", "100.66.0.0/24", "198.51.100.2")
	if _, err := popA.ConnectTransit(1000, 40); err != nil {
		log.Fatal(err)
	}
	if _, err := popB.ConnectTransit(1001, 40); err != nil {
		log.Fatal(err)
	}

	// Approval grants a poisoning budget of 1 (the capability framework;
	// the paper rejected requests for large numbers of poisonings).
	if err := platform.Submit(peering.Proposal{
		Name: "whitehat", Owner: "sec-team", Plan: "controlled hijack + poisoning study",
		Prefixes: []netip.Prefix{netip.MustParsePrefix("184.164.224.0/23")},
		ASNs:     []uint32{61574},
		Caps:     policy.Capabilities{MaxPoisonedASNs: 1},
	}); err != nil {
		log.Fatal(err)
	}
	key, err := platform.Approve("whitehat", nil)
	if err != nil {
		log.Fatal(err)
	}
	c := peering.NewClient("whitehat", key, 61574)
	for _, pop := range []*peering.PoP{popA, popB} {
		if err := c.OpenTunnel(pop); err != nil {
			log.Fatal(err)
		}
		if err := c.StartBGP(pop.Name); err != nil {
			log.Fatal(err)
		}
		if err := c.WaitEstablished(pop.Name, 5*time.Second); err != nil {
			log.Fatal(err)
		}
	}

	// Part 1: controlled hijack of our own space.
	victim := netip.MustParsePrefix("184.164.224.0/24")
	specific := netip.MustParsePrefix("184.164.224.0/25")
	if err := c.Announce("amsix", victim); err != nil {
		log.Fatal(err)
	}
	waitReach(platform, topo, 1001, victim)
	before := len(topo.ChoosersOf(victim, 1000))
	fmt.Printf("baseline: /24 announced at amsix, catchment via AS1000 = %d ASes\n", before)

	// The "attacker" (ourselves, at the second PoP) announces the
	// more-specific /25: longest-prefix match diverts the catchment.
	if err := c.Announce("seattle", specific); err != nil {
		log.Fatal(err)
	}
	waitReach(platform, topo, 1000, specific)
	diverted := len(topo.ChoosersOf(specific, 1001))
	fmt.Printf("controlled hijack: /25 announced at seattle, %d ASes now route the /25 via AS1001\n", diverted)
	if diverted == 0 {
		log.Fatal("controlled hijack drew no catchment")
	}

	// Part 2: unauthorized hijack of foreign space is blocked.
	foreign := inet.PrefixForASN(10000)
	if err := c.Announce("amsix", foreign); err != nil {
		log.Fatal(err)
	}
	settle(platform)
	if rt := topo.RouteAt(1000, foreign); rt != nil {
		for _, hop := range rt.Path {
			if hop == 47065 {
				log.Fatal("unauthorized hijack escaped!")
			}
		}
	}
	rejected := 0
	for _, e := range platform.Engine.Audit() {
		if e.Experiment == "whitehat" && e.Action == policy.ActionReject {
			rejected++
			fmt.Printf("enforcement: %s\n", e)
		}
	}
	if rejected == 0 {
		log.Fatal("no audit entry for the blocked hijack")
	}

	// Part 3: poisoning reveals backup routes. Baseline: how does a
	// distant stub reach us? Then poison the first hop of that path and
	// watch the stub switch to its backup.
	probe := netip.MustParsePrefix("184.164.225.0/24")
	if err := c.Announce("amsix", probe); err != nil {
		log.Fatal(err)
	}
	if err := c.Announce("seattle", probe); err != nil {
		log.Fatal(err)
	}
	waitReach(platform, topo, 10040, probe) // both PoPs' announcements settled
	baseline := topo.RouteAt(10040, probe)
	fmt.Printf("baseline path from AS10040: %v\n", baseline.Path)
	// Poison the transit the stub's provider currently uses; paths
	// through it vanish and the stub falls back to an alternative.
	poisonTarget := baseline.Path[1]
	if len(baseline.Path) > 3 {
		poisonTarget = baseline.Path[2]
	}

	if err := c.Withdraw("amsix", probe, 0); err != nil {
		log.Fatal(err)
	}
	if err := c.Withdraw("seattle", probe, 0); err != nil {
		log.Fatal(err)
	}
	settle(platform)
	if err := c.Announce("amsix", probe, peering.WithPoison(poisonTarget)); err != nil {
		log.Fatal(err)
	}
	if err := c.Announce("seattle", probe, peering.WithPoison(poisonTarget)); err != nil {
		log.Fatal(err)
	}
	settle(platform)
	after := topo.RouteAt(10040, probe)
	if after == nil {
		fmt.Printf("poisoning AS%d: AS10040 has NO path left — it depended entirely on the poisoned AS\n", poisonTarget)
	} else {
		fmt.Printf("poisoning AS%d: AS10040's backup path revealed: %v\n", poisonTarget, after.Path)
		// The poisoned ASN appears in the announcement by construction;
		// what matters is that no AS before the platform (the actual
		// forwarding hops) is the poisoned one.
		for _, hop := range after.Path {
			if hop == 47065 {
				break
			}
			if hop == poisonTarget {
				log.Fatal("poisoned AS still transiting the route")
			}
		}
	}
	if topo.Reachable(poisonTarget, probe) {
		log.Fatal("poisoned AS accepted a path containing itself")
	}
	fmt.Printf("poisoned AS%d itself rejects the route (loop prevention), as intended\n", poisonTarget)

	// Part 4: the platform refused to launch the Part-2 hijack, but a
	// rogue AS in the wild answers to no enforcement engine. Sign a ROA
	// for every topology prefix and compare the rogue sub-prefix's
	// catchment with no origin validation vs 50% ROV deployment: the
	// victim's ROA covers its /24 at its own length, so the /25 is
	// RPKI-Invalid from any origin and validating ASes drop it at import.
	store := rpki.NewStore()
	for _, asn := range topo.ASNs() {
		for _, prefix := range topo.AS(asn).Originated {
			store.Add(rpki.ROA{Prefix: prefix, ASN: asn})
		}
	}
	topo.SetValidator(store)
	rogue := uint32(10055)
	sub := netip.PrefixFrom(foreign.Addr(), foreign.Bits()+1)

	topo.DeployROV(0, 61574)
	if err := topo.Originate(rogue, sub); err != nil {
		log.Fatal(err)
	}
	open := len(topo.ChoosersOf(sub, rogue))
	if err := topo.Withdraw(rogue, sub); err != nil {
		log.Fatal(err)
	}

	deployed := topo.DeployROV(0.5, 61574)
	if err := topo.Originate(rogue, sub); err != nil {
		log.Fatal(err)
	}
	contained := len(topo.ChoosersOf(sub, rogue))
	rovDrops, _ := topo.SecurityDrops()
	fmt.Printf("ROV: rogue AS%d's Invalid %s drew %d ASes with no validation, %d with %d/%d ASes validating (%d candidates dropped at import)\n",
		rogue, sub, open, contained, deployed, topo.Len(), rovDrops)
	if contained >= open {
		log.Fatal("ROV deployment did not shrink the hijack catchment")
	}
	if !topo.Reachable(10040, foreign) {
		log.Fatal("legitimate /24 lost under ROV")
	}
	fmt.Printf("victim's legitimate %s remains reachable everywhere (Valid under its ROA)\n", foreign)

	// A route leak forging a path through tier-1 AS101 to the true
	// origin is RPKI-Valid, so ROV passes it. Peerlock at the tier-1
	// clique catches it: each tier-1 protects every other, whose ASN
	// never legitimately appears mid-path in a route learned from anyone
	// but that tier-1 itself.
	for i := 0; i < cfg.Tier1; i++ {
		for j := 0; j < cfg.Tier1; j++ {
			if i != j {
				if err := topo.AddPeerlock(uint32(100+i), rpki.Peerlock{Protected: uint32(100 + j)}); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	leaker, origin := uint32(10077), uint32(10034)
	leaked := inet.PrefixForASN(origin)
	if err := topo.OriginateWithPath(leaker, leaked, []uint32{leaker, 101, origin}); err != nil {
		log.Fatal(err)
	}
	_, leakDrops := topo.SecurityDrops()
	if leakDrops == 0 {
		log.Fatal("Peerlock did not block the origin-valid leak")
	}
	fmt.Printf("Peerlock: AS%d's leak of %s through AS101 (origin AS%d, %s) dropped %d times at the tier-1s\n",
		leaker, leaked, origin, store.Validate(leaked, origin), leakDrops)
	fmt.Println("security study complete")

	// Part 5: forensics replay. Every announcement above flowed through
	// the monitoring tee into the history store. Shut the platform down
	// (draining the tail of the event stream into the log), then reopen
	// the store from disk and reconstruct the hijack with nothing but
	// the sealed segments — the post-incident workflow an operator runs.
	platform.WaitMonitorDrained(3 * time.Second)
	now := time.Now()
	if err := platform.Close(); err != nil {
		log.Fatal(err)
	}
	replay, err := history.Open(history.Config{Dir: histDir})
	if err != nil {
		log.Fatal(err)
	}
	defer replay.Close()
	st := replay.Stats()
	fmt.Printf("\nforensics: %d records across %d sealed segments, vantages %v\n",
		st.Records, st.Segments, replay.Vantages())

	timeline, err := replay.Between(specific, time.Time{}, now)
	if err != nil {
		log.Fatal(err)
	}
	if len(timeline) == 0 {
		log.Fatal("forensics: the hijacked /25 left no trace in the log")
	}
	fmt.Printf("timeline of the hijacked %s:\n", specific)
	for _, ev := range timeline {
		verb := "announce"
		if ev.Withdraw {
			verb = "withdraw"
		}
		fmt.Printf("  %s  %-8s path %v, seen at %v (x%d)\n",
			ev.Time.Format("15:04:05.000"), verb, ev.ASPath, ev.VantageNames, ev.Dups)
		if len(ev.VantageNames) != 1 || ev.VantageNames[0] != "seattle" {
			log.Fatalf("forensics: /25 event attributed to %v, want seattle only", ev.VantageNames)
		}
	}

	divs, err := replay.DiffPoPs("amsix", "seattle", now)
	if err != nil {
		log.Fatal(err)
	}
	attributed := false
	for _, d := range divs {
		if d.Prefix == specific && d.OnlyAt == "seattle" {
			attributed = true
		}
	}
	if !attributed {
		log.Fatal("forensics: DiffPoPs did not attribute the /25 to seattle")
	}
	fmt.Printf("DiffPoPs(amsix, seattle) at the hijack instant: %d divergences, /25 held only at seattle\n", len(divs))
	fmt.Println("forensics replay complete — timeline reconstructed from disk alone")
}

func mustPoP(p *peering.Platform, name, pool, lan, id string) *peering.PoP {
	pop, err := p.AddPoP(peering.PoPConfig{
		Name: name, RouterID: netip.MustParseAddr(id),
		LocalPool: netip.MustParsePrefix(pool), ExpLAN: netip.MustParsePrefix(lan),
	})
	if err != nil {
		log.Fatal(err)
	}
	return pop
}

// settle waits until every announcement and withdrawal made so far has
// propagated: the platform is at rest.
func settle(p *peering.Platform) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Quiesce(ctx); err != nil {
		log.Fatal(err)
	}
}

// waitReach settles the platform and requires that asn then routes to
// prefix.
func waitReach(p *peering.Platform, topo *inet.Topology, asn uint32, prefix netip.Prefix) {
	settle(p)
	if !topo.Reachable(asn, prefix) {
		log.Fatalf("AS%d never learned %s", asn, prefix)
	}
}
