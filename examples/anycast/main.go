// Anycast: the §7.1 line of work ("Internet Anycast: Performance,
// Problems, & Potential") — announce ONE prefix from several PoPs at
// once, measure each site's catchment in the synthetic Internet, then
// engineer the split with AS-path prepending and observe the shift.
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"time"

	"repro/internal/inet"
	"repro/peering"
)

func main() {
	cfg := inet.DefaultGenConfig()
	cfg.Tier2 = 16
	cfg.Edges = 120
	topo := inet.Generate(cfg)

	platform := peering.NewPlatform(peering.PlatformConfig{ASN: 47065, Topology: topo})
	sites := []struct {
		name    string
		pool    string
		lan     string
		transit uint32
	}{
		{"amsix", "127.65.0.0/16", "100.65.0.0/24", 1000},
		{"seattle", "127.66.0.0/16", "100.66.0.0/24", 1005},
		{"ixbr", "127.67.0.0/16", "100.67.0.0/24", 1010},
	}
	pops := make([]*peering.PoP, len(sites))
	transits := make([]uint32, len(sites))
	for i, s := range sites {
		pop, err := platform.AddPoP(peering.PoPConfig{
			Name:      s.name,
			RouterID:  netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)}),
			LocalPool: netip.MustParsePrefix(s.pool),
			ExpLAN:    netip.MustParsePrefix(s.lan),
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := pop.ConnectTransit(s.transit, 20); err != nil {
			log.Fatal(err)
		}
		pops[i] = pop
		transits[i] = s.transit
	}

	if err := platform.Submit(peering.Proposal{
		Name: "anycast", Owner: "example", Plan: "multi-site catchment study",
		Prefixes: []netip.Prefix{netip.MustParsePrefix("184.164.224.0/24")},
		ASNs:     []uint32{61574},
	}); err != nil {
		log.Fatal(err)
	}
	key, err := platform.Approve("anycast", nil)
	if err != nil {
		log.Fatal(err)
	}
	c := peering.NewClient("anycast", key, 61574)
	for _, pop := range pops {
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

	anycast := netip.MustParsePrefix("184.164.224.0/24")
	settle, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	measure := func(label string) { // at rest: every announcement has propagated
		if err := platform.Quiesce(settle); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s", label)
		for i, tr := range transits {
			fmt.Printf("  %s=%3d", sites[i].name, len(topo.ChoosersOf(anycast, tr)))
		}
		fmt.Println()
	}

	// Phase 1: plain anycast from all three sites.
	for _, pop := range pops {
		if err := c.Announce(pop.Name, anycast); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("%d-AS Internet, anycast /24 from %d sites\n\n", topo.Len(), len(pops))
	fmt.Printf("%-28s  %s\n", "phase", "catchment (ASes per site)")
	measure("plain anycast")

	// Phase 2: prepend at amsix. Under Gao-Rexford, path length only
	// breaks ties within a relationship class, so the shift is partial —
	// the same muted effect prepending shows on the real Internet.
	if err := c.Announce("amsix", anycast, peering.WithPrepend(6)); err != nil {
		log.Fatal(err)
	}
	measure("amsix prepended x6")

	drained := len(topo.ChoosersOf(anycast, transits[0]))
	if drained > topo.Len()/4 {
		log.Fatalf("prepending failed to shrink amsix's catchment (still %d)", drained)
	}

	// Phase 3: withdraw seattle entirely; remaining sites split the pie.
	if err := c.Withdraw("seattle", anycast, 0); err != nil {
		log.Fatal(err)
	}
	measure("seattle withdrawn")
	fmt.Println("anycast study complete")
}
