// Command vbgp-bench regenerates every table and figure of the paper's
// evaluation and prints paper-vs-measured comparisons.
//
// Usage:
//
//	vbgp-bench [-fig NAME|all] [-scale N]
//
// Run with -fig list (or any unknown name) to see the figures; they are
// defined once, in order, in the figures table below.
//
// Absolute numbers differ from the paper (the substrate is an in-memory
// simulator, not BIRD on a server at AMS-IX); the comparisons check the
// shapes the paper claims: linear growth, configuration orderings, and
// envelope ranges. A figure whose shape check is false makes the run
// exit 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/eval"
	"repro/internal/telemetry"
)

// figures is the single ordered registry of the paper's figures: the name
// accepted by -fig, and the function that runs it (taking the -scale
// downscale factor, which most figures ignore). "all" runs them in this
// order. Add a figure here and nowhere else.
var figures = []struct {
	name string
	fn   func(scale int) error
}{
	{"6a", func(int) error { return fig6a() }},
	{"6b", func(int) error { return fig6b() }},
	{"backbone", func(int) error { return backbone() }},
	{"amsix", amsix},
	{"updates", func(int) error { return updates() }},
	{"footprint", footprint},
}

func figureNames() string {
	names := make([]string, 0, len(figures)+1)
	names = append(names, "all")
	for _, f := range figures {
		names = append(names, f.name)
	}
	return strings.Join(names, "|")
}

func main() {
	fig := flag.String("fig", "all", "which experiment to run: "+figureNames())
	scale := flag.Int("scale", 10, "downscale factor for full-footprint experiments")
	flag.Parse()

	matched := false
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		matched = true
		if err := f.fn(*scale); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", f.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown figure %q (want %s)\n", *fig, figureNames())
		os.Exit(2)
	}
}

func header(title, paper string) {
	fmt.Printf("=== %s ===\n", title)
	fmt.Printf("paper: %s\n", paper)
}

// errShape is what a figure returns, after printing and recording its
// measurements, when one of its shape checks is false; the run exits 1.
var errShape = errors.New("a shape check is false")

// printMetricsSnapshot dumps the default registry's series whose names
// match any prefix — the post-run counters the figures accumulate.
func printMetricsSnapshot(prefixes ...string) {
	matched := false
	for _, line := range strings.Split(telemetry.Default().Text(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				if !matched {
					fmt.Println("metrics snapshot:")
					matched = true
				}
				fmt.Printf("  %s\n", line)
				break
			}
		}
	}
}

func fig6a() error {
	header("Figure 6a — memory vs known routes",
		"linear growth, ~327 B/route, ordering control < data < data+default; 32 GiB ~ 100M routes")
	sizes := []int{50000, 100000, 200000}
	res := eval.MeasureFig6a(sizes, 20)
	fmt.Printf("%-45s", "routes:")
	for _, n := range sizes {
		fmt.Printf("%12d", n)
	}
	fmt.Printf("%14s\n", "B/route")
	for _, cfg := range eval.Fig6aConfigs {
		fmt.Printf("%-45s", cfg)
		for _, pt := range res.Curves[cfg] {
			fmt.Printf("%10.1fMB", float64(pt.Bytes)/1e6)
		}
		fmt.Printf("%14.0f\n", res.BytesPerRoute(cfg))
	}
	bpr := res.BytesPerRoute("per-interconnection-data-plane")
	fmt.Printf("measured: %0.f B/route => 32 GiB supports ~%.0fM routes (paper: ~100M at 327 B/route)\n",
		bpr, 32*1024*1024*1024/bpr/1e6)
	ok := res.BytesPerRoute("control-plane") < res.BytesPerRoute("per-interconnection-data-plane") &&
		res.BytesPerRoute("per-interconnection-data-plane") < res.BytesPerRoute("per-interconnection-data-plane-with-default")
	fmt.Printf("shape check (ordering holds): %v\n", ok)
	printMetricsSnapshot("rib_")
	samples := make([]benchSample, 0, len(eval.Fig6aConfigs))
	for _, cfg := range eval.Fig6aConfigs {
		samples = append(samples, benchSample{Name: cfg, Value: res.BytesPerRoute(cfg), Unit: "B/route"})
	}
	record("6a", map[string]any{"sizes": sizes, "trials": 20}, samples...)
	if !ok {
		return errShape
	}
	return nil
}

// measureFig6b measures Fig 6b once per run; the updates figure reuses it.
var measureFig6b = sync.OnceValue(func() *eval.Fig6bResult { return eval.MeasureFig6b(1 << 17) })

func fig6b() error {
	header("Figure 6b — CPU vs update rate",
		"linear growth; accept < single-router < multi-router; thousands of updates/s on one core")
	res := measureFig6b()
	rates := []float64{500, 1000, 2000, 4000}
	fmt.Printf("%-22s%14s", "config", "per-update")
	for _, r := range rates {
		fmt.Printf("%12.0f/s", r)
	}
	fmt.Println()
	for _, cfg := range eval.Fig6bConfigs {
		fmt.Printf("%-22s%14s", cfg, res.PerUpdate[cfg])
		for _, r := range rates {
			fmt.Printf("%13.2f%%", 100*res.CPUAtRate(cfg, r))
		}
		fmt.Println()
	}
	ok := res.PerUpdate["accept"] < res.PerUpdate["single-router-vbgp"] &&
		res.PerUpdate["single-router-vbgp"] <= res.PerUpdate["multi-router-vbgp"]
	fmt.Printf("shape check (ordering holds): %v\n", ok)
	fmt.Printf("max sustainable rate (single-router): %.0f updates/s on one core\n",
		1/res.PerUpdate["single-router-vbgp"].Seconds())
	printMetricsSnapshot("bgp_fsm_", "policy_", "rib_adds", "rib_withdraws", "core_nexthop_")
	samples := make([]benchSample, 0, len(eval.Fig6bConfigs))
	for _, cfg := range eval.Fig6bConfigs {
		samples = append(samples, benchSample{
			Name: cfg, NsPerOp: float64(res.PerUpdate[cfg].Nanoseconds()),
			RoutesPerSec: 1 / res.PerUpdate[cfg].Seconds(),
		})
	}
	record("6b", map[string]any{"updates": 1 << 17}, samples...)
	if !ok {
		return errShape
	}
	return nil
}

func backbone() error {
	header("§6 backbone throughput (iperf3 between PoP pairs)",
		"min 60, avg ~400, max 750 Mbps across all PoP pairs")
	res, err := eval.MeasureBackbone(13, 47065)
	if err != nil {
		return err
	}
	fmt.Printf("pairs measured: %d\n", len(res.Pairs))
	fmt.Printf("measured: min %.0f, avg %.0f, max %.0f Mbps\n", res.Min, res.Avg, res.Max)
	ok := res.Min >= 60*0.5 && res.Max <= 750*1.01
	fmt.Printf("shape check (within provisioned envelope 60-750): %v\n", ok)
	record("backbone", map[string]any{"pops": 13, "pairs": len(res.Pairs)},
		benchSample{Name: "min", Value: res.Min, Unit: "Mbps"},
		benchSample{Name: "avg", Value: res.Avg, Unit: "Mbps"},
		benchSample{Name: "max", Value: res.Max, Unit: "Mbps"})
	if !ok {
		return errShape
	}
	return nil
}

func amsix(scale int) error {
	header("§6 AMS-IX scale",
		"854 peer ASes (106 bilateral, 4 route servers), 2.7M routes on a commodity server")
	res, err := eval.MeasureAMSIX(scale, 40)
	if err != nil {
		return err
	}
	fmt.Printf("scale: 1/%d of AMS-IX\n", scale)
	fmt.Printf("members: %d (bilateral %d), route servers: %d\n", res.Members, res.Bilateral, res.RouteServers)
	fmt.Printf("routes loaded through live RS sessions: %d\n", res.Routes)
	fmt.Printf("heap: %.1f MB (%.0f B/route)\n", float64(res.HeapBytes)/1e6, res.BytesPerRoute)
	fmt.Printf("extrapolated to the paper's 2.7M routes: %.1f GB (paper: fits a 32 GiB server)\n",
		res.BytesPerRoute*2.7e6/1e9)
	record("amsix", map[string]any{"scale": scale, "members": res.Members, "route_servers": res.RouteServers},
		benchSample{Name: "routes", Value: float64(res.Routes), Unit: "routes"},
		benchSample{Name: "bytes-per-route", Value: res.BytesPerRoute, Unit: "B/route"})
	return nil
}

func updates() error {
	header("§6 AMS-IX update load (18h trace)",
		"mean 21.8 updates/s, p99 ~400 updates/s, handled with headroom")
	f := measureFig6b()
	res := eval.MeasureUpdateLoad(f)
	fmt.Printf("single-router cost: %s per update (Fig 6b's measurement)\n", f.PerUpdate["single-router-vbgp"])
	fmt.Printf("mean %.1f upd/s -> %.3f%% CPU; p99 %.0f upd/s -> %.2f%% CPU\n",
		res.MeanRate, 100*res.MeanCPU, res.P99Rate, 100*res.P99CPU)
	ok := res.P99CPU < 0.5
	fmt.Printf("shape check (p99 well under one core): %v\n", ok)
	record("updates", nil,
		benchSample{Name: "mean", RoutesPerSec: res.MeanRate, Value: res.MeanCPU, Unit: "cpu-fraction"},
		benchSample{Name: "p99", RoutesPerSec: res.P99Rate, Value: res.P99CPU, Unit: "cpu-fraction"})
	if !ok {
		return errShape
	}
	return nil
}

func footprint(scale int) error {
	header("§4.2 footprint and connectivity",
		"13 PoPs, 8 ASNs, 40 prefixes; 923 peers (129 bilateral); AMS-IX 854/106, SIX 306/63, PHX 140/10, IX.br 129/6; 33% transit / 28% access / 23% content")
	res := eval.MeasureFootprint(scale)
	fmt.Printf("scale: 1/%d of the production footprint\n", scale)
	fmt.Printf("PoPs %d, ASNs %d, prefixes %d (configured per paper)\n", res.PoPs, res.ASNs, res.Prefixes)
	fmt.Printf("synthetic Internet: %d ASes\n", res.TopologySize)
	for _, name := range eval.SortedKeys(res.PerIXP) {
		c := res.PerIXP[name]
		fmt.Printf("  %-12s members %4d  bilateral %3d\n", name, c[0], c[1])
	}
	fmt.Printf("distinct peers: %d, bilateral total: %d\n", res.TotalPeers, res.Bilateral)
	fmt.Printf("peer type mix (%%):")
	for _, typ := range eval.SortedKeys(res.TypePercent) {
		fmt.Printf(" %s %.0f", typ, res.TypePercent[typ])
	}
	fmt.Println()
	fmt.Printf("union of peers' customer cones: %d ASes (reach of peer announcements)\n", res.PeerConeUnion)
	record("footprint", map[string]any{"scale": scale},
		benchSample{Name: "pops", Value: float64(res.PoPs), Unit: "pops"},
		benchSample{Name: "peers", Value: float64(res.TotalPeers), Unit: "peers"},
		benchSample{Name: "bilateral", Value: float64(res.Bilateral), Unit: "peers"},
		benchSample{Name: "peer-cone-union", Value: float64(res.PeerConeUnion), Unit: "ASes"})
	return nil
}
