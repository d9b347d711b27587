// Traffic engineering: an Espresso-style controller (the paper's X2,
// Fig. 1) running as a Peering experiment. The controller probes each
// egress interconnection, measures delivery rates, and shifts traffic
// per packet toward the best-performing neighbor — the fine-grained
// forwarding control that motivated vBGP's data-plane delegation
// (§3.2.2, §7.2). A parallel experiment announces and measures
// concurrently, demonstrating isolation (§2.1).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/peering"
)

func main() {
	cfg := inet.DefaultGenConfig()
	cfg.Tier2 = 12
	cfg.Edges = 60
	topo := inet.Generate(cfg)

	platform := peering.NewPlatform(peering.PlatformConfig{ASN: 47065, Topology: topo})
	pop, err := platform.AddPoP(peering.PoPConfig{
		Name:      "seattle",
		RouterID:  netip.MustParseAddr("198.51.100.2"),
		LocalPool: netip.MustParsePrefix("127.65.0.0/16"),
		ExpLAN:    netip.MustParsePrefix("100.66.0.0/24"),
	})
	if err != nil {
		log.Fatal(err)
	}
	// Two transits toward the same destinations.
	t1, err := pop.ConnectTransit(1000, 50)
	if err != nil {
		log.Fatal(err)
	}
	t2, err := pop.ConnectTransit(1001, 50)
	if err != nil {
		log.Fatal(err)
	}

	// Degrade transit 1's path: its edge drops 60% of packets.
	rng := rand.New(rand.NewSource(7))
	degrade(pop, t1.Name, func() bool { return rng.Float64() < 0.6 })

	// Two parallel experiments (§2.1): the TE controller and a
	// measurement experiment announcing its own space concurrently.
	controllerKey := approve(platform, "espresso", "184.164.224.0/24", 61574)
	watcherKey := approve(platform, "watcher", "184.164.225.0/24", 61575)

	controller := peering.NewClient("espresso", controllerKey, 61574)
	watcher := peering.NewClient("watcher", watcherKey, 61575)
	for _, c := range []*peering.Client{controller, watcher} {
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
	if err := watcher.Announce(pop.Name, netip.MustParsePrefix("184.164.225.0/24")); err != nil {
		log.Fatal(err)
	}

	dstPrefix := inet.PrefixForASN(100)
	settle, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := platform.Quiesce(settle); err != nil {
		log.Fatal(err)
	}
	if n := len(controller.RoutesFor(pop.Name, dstPrefix)); n < 2 {
		log.Fatalf("expected 2 routes for %s, have %d", dstPrefix, n)
	}
	dst := dstPrefix.Addr().Next()

	// Controller loop: probe both egresses, then send the "user traffic"
	// via the measured-best egress, per packet.
	fmt.Println("egress        sent  delivered  rate")
	best, bestRate := uint32(0), -1.0
	for _, nbr := range []struct {
		id   uint32
		name string
	}{{t1.ID, t1.Name}, {t2.ID, t2.Name}} {
		const probes = 40
		ok := 0
		for i := 0; i < probes; i++ {
			if _, err := controller.Ping(pop.Name, nbr.id, dst, uint16(nbr.id), uint16(i), 300*time.Millisecond); err == nil {
				ok++
			}
		}
		rate := float64(ok) / probes
		fmt.Printf("%-12s %5d  %9d  %3.0f%%\n", nbr.name, probes, ok, rate*100)
		if rate > bestRate {
			best, bestRate = nbr.id, rate
		}
	}
	fmt.Printf("controller selects egress neighbor id %d (%.0f%% delivery)\n", best, bestRate*100)

	// Shift production traffic onto the chosen egress.
	delivered := 0
	const flows = 100
	for i := 0; i < flows; i++ {
		if _, err := controller.Ping(pop.Name, best, dst, 999, uint16(i), 300*time.Millisecond); err == nil {
			delivered++
		}
	}
	fmt.Printf("after shift: %d/%d packets delivered via the chosen egress\n", delivered, flows)

	// The parallel watcher kept its own session and announcement intact.
	if watcher.BGPStatus(pop.Name).String() != "Established" {
		log.Fatal("parallel experiment disturbed")
	}
	if !topo.Reachable(1000, netip.MustParsePrefix("184.164.225.0/24")) {
		log.Fatal("watcher's announcement lost")
	}
	fmt.Println("parallel experiment unaffected: isolation holds")
}

func approve(p *peering.Platform, name, prefix string, asn uint32) string {
	if err := p.Submit(peering.Proposal{
		Name: name, Owner: "example", Plan: "traffic engineering study",
		Prefixes: []netip.Prefix{netip.MustParsePrefix(prefix)},
		ASNs:     []uint32{asn},
	}); err != nil {
		log.Fatal(err)
	}
	key, err := p.Approve(name, nil)
	if err != nil {
		log.Fatal(err)
	}
	return key
}

// degrade installs a probabilistic drop filter at the neighbor-facing
// router interface, modeling a congested interconnection.
func degrade(pop *peering.PoP, neighborName string, drop func() bool) {
	ifc := pop.Router.Interface("nbr-" + neighborName)
	if ifc == nil {
		log.Fatalf("no interface for %s", neighborName)
	}
	ifc.AddEgressFilter(netsim.FilterFunc(func(data []byte) netsim.Verdict {
		var fr ethernet.Frame
		if fr.DecodeFromBytes(data) == nil && fr.Type == ethernet.TypeIPv4 && drop() {
			return netsim.VerdictDrop
		}
		return netsim.VerdictPass
	}))
}
