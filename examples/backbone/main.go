// Backbone: the cloud-provider setting of §4.3/§4.4 — multiple PoPs
// joined by a provisioned backbone, an experiment attached at one PoP
// steering announcements to, and traffic through, a neighbor at ANOTHER
// PoP (Fig. 5), plus the §6 backbone throughput measurement.
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"time"

	"repro/internal/inet"
	"repro/internal/traffic"
	"repro/peering"
)

func main() {
	cfg := inet.DefaultGenConfig()
	cfg.Tier2 = 12
	cfg.Edges = 60
	topo := inet.Generate(cfg)

	platform := peering.NewPlatform(peering.PlatformConfig{ASN: 47065, Topology: topo})
	amsix := mustPoP(platform, "amsix", "127.65.0.0/16", "100.65.0.0/24", "198.51.100.1")
	seattle := mustPoP(platform, "seattle", "127.66.0.0/16", "100.66.0.0/24", "198.51.100.2")
	saopaulo := mustPoP(platform, "ixbr", "127.67.0.0/16", "100.67.0.0/24", "198.51.100.3")

	// Provisioned backbone (AL2S/RNP equivalents): capacities in the
	// paper's measured range.
	must(platform.ConnectBackbone(amsix, seattle, 750e6, 35*time.Millisecond))
	must(platform.ConnectBackbone(seattle, saopaulo, 400e6, 90*time.Millisecond))
	must(platform.ConnectBackbone(amsix, saopaulo, 60e6, 110*time.Millisecond))

	// Each PoP has one local interconnection.
	if _, err := amsix.ConnectTransit(1000, 40); err != nil {
		log.Fatal(err)
	}
	remote, err := seattle.ConnectPeer(10000, 40)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := saopaulo.ConnectTransit(1001, 40); err != nil {
		log.Fatal(err)
	}

	if err := platform.Submit(peering.Proposal{
		Name: "cloudy", Owner: "example", Plan: "multi-PoP egress study",
		Prefixes: []netip.Prefix{netip.MustParsePrefix("184.164.224.0/24")},
		ASNs:     []uint32{61574},
	}); err != nil {
		log.Fatal(err)
	}
	key, err := platform.Approve("cloudy", nil)
	if err != nil {
		log.Fatal(err)
	}

	// The experiment connects ONLY at amsix, yet controls the whole AS.
	c := peering.NewClient("cloudy", key, 61574)
	if err := c.OpenTunnel(amsix); err != nil {
		log.Fatal(err)
	}
	if err := c.StartBGP("amsix"); err != nil {
		log.Fatal(err)
	}
	if err := c.WaitEstablished("amsix", 5*time.Second); err != nil {
		log.Fatal(err)
	}

	// Visibility across the backbone: routes of seattle's neighbor show
	// up at amsix with a local-pool next hop (Fig. 5 next-hop chaining).
	probe := inet.PrefixForASN(100)
	settle, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	must(platform.Quiesce(settle))
	fmt.Printf("experiment at amsix sees %d paths for %s (local + 2 remote PoPs):\n",
		len(c.RoutesFor("amsix", probe)), probe)
	for _, p := range c.RoutesFor("amsix", probe) {
		fmt.Printf("  id %-3d via %-12s path %v\n", p.ID, p.NextHop(), p.Attrs.ASPathFlat())
	}

	// Announce only to the neighbor at seattle, across the backbone.
	if err := c.Announce("amsix", netip.MustParsePrefix("184.164.224.0/24"),
		peering.ToNeighbors(remote.ID)); err != nil {
		log.Fatal(err)
	}
	must(platform.Quiesce(settle))
	rt := topo.RouteAt(10000, netip.MustParsePrefix("184.164.224.0/24"))
	if rt == nil {
		log.Fatal("remote-PoP announcement never arrived")
	}
	fmt.Printf("\nannouncement exported at the REMOTE PoP only: AS10000 path %v\n", rt.Path)

	// Traffic through the remote neighbor: per-packet selection of an
	// egress two PoPs away, chained over the backbone (Fig. 5).
	dst := probe.Addr().Next()
	rtt, err := c.Ping("amsix", remote.ID, dst, 1, 1, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ping via seattle's neighbor (through the backbone): rtt=%s\n", rtt.Round(time.Microsecond))
	fmt.Printf("forward counters: amsix=%d seattle=%d\n",
		amsix.Router.Forwarded.Load(), seattle.Router.Forwarded.Load())

	// §6: throughput between PoP pairs over the provisioned links.
	fmt.Println("\nbackbone throughput (fluid TCP model over provisioned links):")
	for _, l := range platform.BackboneLinks() {
		bps, err := traffic.MeasureSingleFlow([]traffic.Link{
			{Name: l.A + "-" + l.B, CapacityBps: l.CapacityBps, Latency: l.Latency},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s <-> %-8s provisioned %4.0f Mbps  measured %4.0f Mbps\n",
			l.A, l.B, l.CapacityBps/1e6, bps/1e6)
	}
	fmt.Println("backbone example complete")
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

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
