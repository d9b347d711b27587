// Benchmarks regenerating the paper's evaluation (§6): one benchmark
// family per figure or quantified claim. cmd/vbgp-bench drives the same
// code paths and prints paper-vs-measured tables; these testing.B
// benchmarks expose the underlying per-operation costs.
//
//	Fig. 6a  BenchmarkFig6aMemory/*      — routing-table bytes per route
//	Fig. 6b  BenchmarkFig6bUpdates/*     — per-update processing cost
//	§6       BenchmarkBackboneThroughput — TCP throughput between PoPs
//	§6       BenchmarkDataPlaneForward   — per-packet forwarding cost
//	ablation BenchmarkAblation*          — design-choice costs
package repro_test

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/netsim"
	"repro/internal/pipe"
	"repro/internal/policy"
	"repro/internal/rib"
	"repro/internal/traffic"
	"repro/internal/workload"
)

func ipa(s string) netip.Addr    { return netip.MustParseAddr(s) }
func pfxb(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// heapInUse forces a GC and reports live heap bytes.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// loadRoutes fills tables the way each Fig. 6a configuration would:
//
//	control:  one RIB holding every path (BGP operation only)
//	data:     per-interconnection RIBs plus one FIB entry per route
//	default:  data plus a router-managed best-path table
func loadRoutes(mode string, neighbors, total int) (keep []any) {
	gen := workload.NewGenerator(1, 65001, ipa("192.0.2.1"))
	perNbr := total / neighbors

	switch mode {
	case "control":
		t := rib.NewTable("loc-rib")
		for i := 0; i < total; i++ {
			r := gen.Route(i)
			t.Add(&rib.Path{Prefix: r.Prefix, Peer: fmt.Sprintf("n%d", i%neighbors),
				Attrs: r.Attrs, EBGP: true, Seq: rib.NextSeq()})
		}
		return []any{t}
	case "data", "default":
		var tables []any
		var fibs []any
		for n := 0; n < neighbors; n++ {
			t := rib.NewTable(fmt.Sprintf("adj-in-%d", n))
			f := rib.NewFIB(fmt.Sprintf("fib-%d", n))
			for i := 0; i < perNbr; i++ {
				r := gen.Route(n*perNbr + i)
				t.Add(&rib.Path{Prefix: r.Prefix, Peer: t.Name, Attrs: r.Attrs, EBGP: true, Seq: rib.NextSeq()})
				f.Set(r.Prefix, rib.FIBEntry{NextHop: r.Attrs.NextHop, Out: t.Name})
			}
			tables = append(tables, t, f)
			_ = fibs
		}
		if mode == "default" {
			d := rib.NewTable("default")
			for i := 0; i < total; i++ {
				r := gen.Route(i)
				d.Add(&rib.Path{Prefix: r.Prefix, Peer: "best", Attrs: r.Attrs, Seq: rib.NextSeq()})
			}
			tables = append(tables, d)
		}
		return tables
	}
	panic("unknown mode")
}

// BenchmarkFig6aMemory measures routing-table memory per route for the
// three configurations of Fig. 6a. The paper reports ~327 B/route
// (BIRD); ordering control < data < data+default must hold.
func BenchmarkFig6aMemory(b *testing.B) {
	const routes = 200000
	const neighbors = 20
	for _, mode := range []string{"control", "data", "default"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				before := heapInUse()
				keep := loadRoutes(mode, neighbors, routes)
				after := heapInUse()
				b.ReportMetric(float64(after-before)/routes, "B/route")
				runtime.KeepAlive(keep)
			}
		})
	}
}

// updatePipeline builds a session pair feeding a receiver that models
// one Fig. 6b configuration and returns a function processing one
// pre-encoded update plus a cleanup.
func updatePipeline(b *testing.B, mode string) (process func(e workload.UpdateEvent)) {
	b.Helper()
	switch mode {
	case "accept":
		// Accept-all baseline: store the route, no filters, no rewrite.
		t := rib.NewTable("accept")
		return func(e workload.UpdateEvent) {
			if e.Kind == workload.KindWithdraw {
				t.Withdraw(e.Route.Prefix, "n", 0)
				return
			}
			t.Add(&rib.Path{Prefix: e.Route.Prefix, Peer: "n", Attrs: e.Route.Attrs, Seq: rib.NextSeq()})
		}
	case "single", "multi":
		// vBGP filter stack: policy evaluation (worst case: run to
		// completion, accept), next-hop rewrite into the local pool, and
		// for "multi" the additional global-pool rewrite of §4.4.
		en := policy.NewEngine(47065)
		en.DailyUpdateLimit = 1 << 30
		en.Register(&policy.Experiment{
			Name:     "bench",
			Prefixes: []netip.Prefix{pfxb("0.0.0.0/0")},
			ASNs:     []uint32{65001},
			Caps:     policy.Capabilities{MaxPoisonedASNs: 64, MaxCommunities: 64, AllowTransit: true, MaxPathLen: 64},
		})
		t := rib.NewTable("vbgp")
		localPool := core.NewPool(pfxb("127.65.0.0/16"))
		localIP := localPool.MustAlloc()
		globalPool := core.NewPool(pfxb("127.127.0.0/16"))
		globalIP := globalPool.MustAlloc()
		return func(e workload.UpdateEvent) {
			if e.Kind == workload.KindWithdraw {
				res := en.EvaluateWithdraw("bench", "amsix", e.Route.Prefix)
				_ = res
				t.Withdraw(e.Route.Prefix, "n", 0)
				return
			}
			res := en.EvaluateAnnouncement("bench", "amsix", e.Route.Prefix, e.Route.Attrs)
			if res.Action == policy.ActionReject {
				return
			}
			out := res.Attrs
			out.NextHop = localIP
			if mode == "multi" {
				// Backbone handling: recognize the global pool and
				// re-rewrite into the local pool (Fig. 5).
				out = out.Clone()
				out.NextHop = globalIP
				if globalPool.Contains(out.NextHop) {
					out.NextHop = localIP
				}
			}
			t.Add(&rib.Path{Prefix: e.Route.Prefix, Peer: "n", Attrs: out, Seq: rib.NextSeq()})
		}
	}
	b.Fatalf("unknown mode")
	return nil
}

// BenchmarkFig6bUpdates measures the per-update cost of the three filter
// configurations of Fig. 6b. CPU utilization at rate R is
// R x (measured ns/op) / 1e9; linearity in R follows. Ordering must be
// accept < single < multi.
func BenchmarkFig6bUpdates(b *testing.B) {
	gen := workload.NewGenerator(2, 65001, ipa("192.0.2.1"))
	events := gen.Stream(2000, 1<<16)
	for _, mode := range []string{"accept", "single", "multi"} {
		b.Run(mode, func(b *testing.B) {
			process := updatePipeline(b, mode)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				process(events[i&(1<<16-1)])
			}
		})
	}
}

// BenchmarkFig6bWire measures the full wire-to-RIB path: decode a real
// UPDATE message and store it, the cost every configuration pays before
// filters run.
func BenchmarkFig6bWire(b *testing.B) {
	gen := workload.NewGenerator(3, 65001, ipa("192.0.2.1"))
	events := gen.Stream(2000, 4096)
	ca, cb := pipe.New()
	received := make(chan struct{}, 1<<20)
	rcv := bgp.NewSession(ca, bgp.Config{LocalASN: 47065, RemoteASN: 65001, LocalID: ipa("10.0.0.1"),
		OnUpdate: func(*bgp.Update) { received <- struct{}{} }})
	snd := bgp.NewSession(cb, bgp.Config{LocalASN: 65001, RemoteASN: 47065, LocalID: ipa("10.0.0.2")})
	go rcv.Run()
	go snd.Run()
	defer rcv.Close()
	defer snd.Close()
	deadline := time.Now().Add(5 * time.Second)
	for snd.State() != bgp.StateEstablished && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := snd.Send(events[i&4095].Update()); err != nil {
			b.Fatal(err)
		}
		<-received
	}
}

// BenchmarkBackboneThroughput reproduces the §6 iperf3 measurement:
// steady-state TCP throughput between PoP pairs over provisioned
// backbone links spanning the paper's 60-750 Mbps capacity range.
func BenchmarkBackboneThroughput(b *testing.B) {
	caps := []float64{60e6, 250e6, 400e6, 600e6, 750e6}
	for _, c := range caps {
		c := c
		b.Run(fmt.Sprintf("%dMbps", int(c/1e6)), func(b *testing.B) {
			var got float64
			for i := 0; i < b.N; i++ {
				bps, err := traffic.MeasureSingleFlow([]traffic.Link{
					{Name: "bb", CapacityBps: c, Latency: 20 * time.Millisecond},
				})
				if err != nil {
					b.Fatal(err)
				}
				got = bps
			}
			b.ReportMetric(got/1e6, "Mbps")
		})
	}
}

// BenchmarkDataPlaneForward measures per-packet forwarding through the
// vBGP data plane: MAC-table selection, per-neighbor LPM, TTL rewrite,
// and transmission.
func BenchmarkDataPlaneForward(b *testing.B) {
	router := core.NewRouter(core.Config{Name: "bench", ASN: 47065, RouterID: ipa("10.0.0.1")})
	nbrLAN := netsim.NewSegment("nbr")
	expLAN := netsim.NewSegment("exp")
	router.AddInterface("nbr0", "neighbor", pfxb("192.0.2.254/24"), nbrLAN)
	router.AddInterface("exp0", "experiment", pfxb("100.65.0.254/24"), expLAN)

	sink := netsim.NewInterface("sink", ethernet.MAC{2, 0, 0, 0, 0, 0x11})
	sink.AddAddr(ipa("192.0.2.1"))
	sink.SetHandler(func(*netsim.Interface, *ethernet.Frame) {})
	sink.Attach(nbrLAN)

	cr, cn := pipe.New()
	nbr, err := router.AddNeighbor(core.NeighborConfig{
		Name: "n1", ID: 1, ASN: 65001, Addr: ipa("192.0.2.1"), Interface: "nbr0", Conn: cr,
	})
	if err != nil {
		b.Fatal(err)
	}
	peer := bgp.NewSession(cn, bgp.Config{LocalASN: 65001, RemoteASN: 47065, LocalID: ipa("192.0.2.1")})
	go peer.Run()
	defer peer.Close()
	deadline := time.Now().Add(5 * time.Second)
	for peer.State() != bgp.StateEstablished && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Install routes directly for bench determinism.
	gen := workload.NewGenerator(4, 65001, ipa("192.0.2.1"))
	for i := 0; i < 100000; i++ {
		r := gen.Route(i)
		attrs := r.Attrs.Clone()
		attrs.NextHop = ipa("192.0.2.1")
		nbr.Table.Add(&rib.Path{Prefix: r.Prefix, Peer: "n1", Attrs: attrs, EBGP: true, Seq: rib.NextSeq()})
	}
	tx := netsim.NewInterface("tx", ethernet.MAC{0x0a, 0, 0, 0, 0, 1})
	tx.Attach(expLAN)

	dst := gen.Route(50000).Prefix.Addr().Next()
	pkt := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP,
		Src: ipa("184.164.224.1"), Dst: dst, Payload: make([]byte, 64)}
	frame := ethernet.Frame{Dst: nbr.LocalMAC, Src: tx.MAC(), Type: ethernet.TypeIPv4, Payload: pkt.Marshal()}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Send(&frame)
	}
	b.StopTimer()
	if router.Forwarded.Load() == 0 {
		b.Fatal("nothing forwarded")
	}
	b.ReportMetric(float64(router.Forwarded.Load())/float64(b.N), "fwd/op")
}

// BenchmarkAblationAddPath quantifies the visibility ADD-PATH buys: the
// number of distinct routes a table retains for one prefix with and
// without per-path IDs.
func BenchmarkAblationAddPath(b *testing.B) {
	for _, addPath := range []bool{true, false} {
		name := "with-addpath"
		if !addPath {
			name = "without-addpath"
		}
		b.Run(name, func(b *testing.B) {
			var retained int
			for i := 0; i < b.N; i++ {
				t := rib.NewTable("x")
				for n := 0; n < 16; n++ {
					id := bgp.PathID(0)
					if addPath {
						id = bgp.PathID(n + 1)
					}
					t.Add(&rib.Path{Prefix: pfxb("192.168.0.0/24"), ID: id, Peer: "mux",
						Attrs: &bgp.PathAttrs{NextHop: ipa("127.65.0.1")}, Seq: rib.NextSeq()})
				}
				retained = t.PathCount()
			}
			b.ReportMetric(float64(retained), "paths-visible")
		})
	}
}

// BenchmarkPolicyEvaluate isolates the enforcement engine (the ExaBGP
// replacement): per-announcement evaluation cost with a full capability
// check.
func BenchmarkPolicyEvaluate(b *testing.B) {
	en := policy.NewEngine(47065)
	en.DailyUpdateLimit = 1 << 30
	en.Register(&policy.Experiment{
		Name:     "bench",
		Prefixes: []netip.Prefix{pfxb("184.164.224.0/23")},
		ASNs:     []uint32{61574},
		Caps:     policy.Capabilities{MaxPoisonedASNs: 3, MaxCommunities: 8},
	})
	attrs := &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true,
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{61574, 3356, 61574}}},
		NextHop: ipa("100.65.0.1"),
		Communities: []bgp.Community{
			bgp.NewCommunity(47065, 1), bgp.NewCommunity(3356, 70),
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := en.EvaluateAnnouncement("bench", "amsix", pfxb("184.164.224.0/24"), attrs)
		if res.Action == policy.ActionReject {
			b.Fatal(res.Reasons)
		}
	}
}

// BenchmarkTrieLookup isolates the longest-prefix-match cost that every
// forwarded packet pays.
func BenchmarkTrieLookup(b *testing.B) {
	gen := workload.NewGenerator(5, 65001, ipa("192.0.2.1"))
	f := rib.NewFIB("bench")
	for i := 0; i < 500000; i++ {
		r := gen.Route(i)
		f.Set(r.Prefix, rib.FIBEntry{NextHop: ipa("192.0.2.1")})
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		addrs[i] = gen.Route(i * 488).Prefix.Addr().Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := f.Lookup(addrs[i&1023]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkAblationMRAI measures churn suppression: a flapping prefix
// (100 re-advertisements in a burst) against sessions with and without
// MinRouteAdvertisementInterval pacing. The metric is updates actually
// put on the wire.
func BenchmarkAblationMRAI(b *testing.B) {
	for _, mrai := range []time.Duration{0, 100 * time.Millisecond} {
		name := "without-mrai"
		if mrai > 0 {
			name = "with-mrai"
		}
		b.Run(name, func(b *testing.B) {
			var wire float64
			for i := 0; i < b.N; i++ {
				ca, cb := pipe.New()
				var received atomic.Uint64
				rcv := bgp.NewSession(ca, bgp.Config{LocalASN: 47065, RemoteASN: 65001, LocalID: ipa("10.0.0.1"),
					OnUpdate: func(*bgp.Update) { received.Add(1) }})
				snd := bgp.NewSession(cb, bgp.Config{LocalASN: 65001, RemoteASN: 47065, LocalID: ipa("10.0.0.2"),
					MRAI: mrai})
				go rcv.Run()
				go snd.Run()
				deadline := time.Now().Add(5 * time.Second)
				for snd.State() != bgp.StateEstablished && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				for flap := 0; flap < 100; flap++ {
					a := &bgp.PathAttrs{Origin: bgp.OriginIGP, HasOrigin: true,
						ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{65001}}},
						NextHop: ipa("10.0.0.2"), MED: uint32(flap), HasMED: true}
					snd.Send(&bgp.Update{Attrs: a, NLRI: []bgp.NLRI{{Prefix: pfxb("203.0.113.0/24")}}})
				}
				// Allow the paced flush to drain.
				time.Sleep(mrai + 150*time.Millisecond)
				wire = float64(snd.UpdatesOut.Load())
				rcv.Close()
				snd.Close()
			}
			b.ReportMetric(wire, "wire-updates/100-flaps")
		})
	}
}
