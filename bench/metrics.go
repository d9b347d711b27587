package main

// The metric and workload declarations. BENCHMARK.json at the repository
// root is this table rendered (`go run ./bench -describe`); the smoke
// test fails when the two differ. Later issues refer to workloads and
// metrics by these names.

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDecl{
	{"fanout-wide", "2 neighbors x 32768 routes to 8 experiments, single-NLRI churn: export build, attribute clone, encode and 8 serial session writes do the work; the RIB does little"},
	{"table-deep", "16 neighbors x 16384 routes to 1 experiment, 8 NLRI per UPDATE: decode, admit, rib.AddBatch, snapshot rebuilds and GC over a large heap do the work; also the late-joiner table dump"},
	{"packet-forward", "64-port neighbor LAN x 2048 routes, one experiment behind tunnel, bridge and BPF: MAC-table select, LPM, TTL rewrite and netsim's O(ports) delivery do the work; update and API paths small"},
	{"announce-api", "2 PoPs x 4 neighbors, WAL-backed control plane holding 200 specs: policy, syncPrefix, mesh relay, WAL fsync and the reconciler's O(specs) passes do the work; update and packet paths small"},
}

// metricDecl declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression (and the agreement bound for two sets of runs of the
// same code); per-layer metrics have none. Layer and Moves are the
// attribution written down before measuring: which package the number
// belongs to and which end-to-end metric, on which workload, it should
// move.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	Moves  string
}

// The end-to-end list gates on counts: what one route, one packet, one
// spec costs in allocations and bytes repeats to about 1 % on a machine
// whose wall clock does not (README, "Bounds"). Every rate and latency
// is in the per-layer list, ungated, under its layer's name.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "update_allocs_per_route", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "dump_allocs_per_route", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "mem_bytes_per_route", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "announce_allocs_per_route", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "api_allocs_per_spec", Unit: "count", Better: "lower", Bound: 0.06},
	{Name: "api_wal_bytes_per_spec", Unit: "B", Better: "lower", Bound: 0.03},
	{Name: "forward_allocs_per_pkt", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "inbound_allocs_per_pkt", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "tunnel_allocs_per_pkt", Unit: "count", Better: "lower", Bound: 0.03},
}

const (
	updWide = "core.update_routes_per_s, update_allocs_per_route @ fanout-wide"
	updDeep = "core.update_routes_per_s @ table-deep"
	fwd     = "core.forward_pps, core.inbound_pps @ packet-forward"
)

var perLayer = []metricDecl{
	// bgp: probes over a pipe pair; spans on router→experiment conns.
	{Name: "bgp.roundtrip_ns_per_route", Unit: "ns", Better: "lower", Layer: "bgp", Moves: updWide + " (1 NLRI per UPDATE)"},
	{Name: "bgp.roundtrip_packed_ns_per_route", Unit: "ns", Better: "lower", Layer: "bgp", Moves: updDeep + "; core.dump_routes_per_s @ table-deep (8 NLRI per attribute set)"},
	{Name: "bgp.allocs_per_route", Unit: "count", Better: "lower", Layer: "bgp", Moves: "update_allocs_per_route @ fanout-wide, table-deep; dump_allocs_per_route @ table-deep"},
	{Name: "bgp.attrs_clone_ns", Unit: "ns", Better: "lower", Layer: "bgp", Moves: updWide + "; core.dump_routes_per_s @ table-deep"},
	{Name: "bgp.wire_bytes_per_route", Unit: "B", Better: "lower", Layer: "bgp", Moves: "core.update_routes_per_s @ fanout-wide; none @ packet-forward"},
	{Name: "bgp.writes_per_route", Unit: "count", Better: "lower", Layer: "bgp", Moves: "core.update_routes_per_s @ fanout-wide; none @ packet-forward"},
	// pipe
	{Name: "pipe.write_ns", Unit: "ns", Better: "lower", Layer: "pipe", Moves: "core.update_propagate_p50_us, core.update_routes_per_s @ fanout-wide"},
	{Name: "pipe.write_wait_frac", Unit: "ratio", Better: "lower", Layer: "pipe", Moves: "core.update_propagate_p50_us, core.update_routes_per_s @ fanout-wide (E serial writes on the neighbor's read goroutine)"},
	// policy
	{Name: "policy.evaluate_ns", Unit: "ns", Better: "lower", Layer: "policy", Moves: "core.announce_routes_per_s, core.announce_propagate_p50_us @ announce-api; none @ fanout-wide, table-deep"},
	{Name: "policy.evaluate_allocs", Unit: "count", Better: "lower", Layer: "policy", Moves: "announce_allocs_per_route @ announce-api"},
	{Name: "policy.withdraw_ns", Unit: "ns", Better: "lower", Layer: "policy", Moves: "core.announce_routes_per_s @ announce-api"},
	// rib
	{Name: "rib.addbatch_ns_per_route", Unit: "ns", Better: "lower", Layer: "rib", Moves: updDeep + "; small @ fanout-wide"},
	{Name: "rib.withdrawbatch_ns_per_route", Unit: "ns", Better: "lower", Layer: "rib", Moves: updDeep},
	{Name: "rib.write_locks_per_route", Unit: "count", Better: "lower", Layer: "rib", Moves: updDeep},
	{Name: "rib.snapshot_build_ms_16k", Unit: "ms", Better: "lower", Layer: "rib", Moves: updDeep + "; core.forward_churn_pps"},
	{Name: "rib.snapshot_build_ms_128k", Unit: "ms", Better: "lower", Layer: "rib", Moves: updDeep},
	{Name: "rib.walkbest_ns_per_route", Unit: "ns", Better: "lower", Layer: "rib", Moves: "core.dump_routes_per_s @ table-deep"},
	{Name: "rib.bytes_per_route", Unit: "B", Better: "lower", Layer: "rib", Moves: "mem_bytes_per_route @ table-deep"},
	{Name: "rib.lookup_ns", Unit: "ns", Better: "lower", Layer: "rib", Moves: fwd},
	{Name: "rib.lookup_stale_ns", Unit: "ns", Better: "lower", Layer: "rib", Moves: "core.forward_churn_pps"},
	{Name: "rib.snapshot_lookup_frac", Unit: "ratio", Better: "higher", Layer: "rib", Moves: fwd + " (must be 1.0 in the quiescent rounds)"},
	// core, control plane. The first five are the issue's end-to-end
	// rates and latencies of the update path, demoted (README, "Bounds").
	{Name: "core.update_routes_per_s", Unit: "1/s", Better: "higher", Layer: "core", Moves: "neighbor routes accepted and delivered to every experiment per second; the end-to-end update throughput, ungated"},
	{Name: "core.dump_routes_per_s", Unit: "1/s", Better: "higher", Layer: "core", Moves: "late joiner: ConnectExperiment → End-of-RIB, routes per second; the end-to-end table dump, ungated"},
	{Name: "core.announce_routes_per_s", Unit: "1/s", Better: "higher", Layer: "core", Moves: "Client.Announce/Withdraw → every neighbor session, route updates per second; the end-to-end announce throughput, ungated"},
	{Name: "core.update_propagate_p50_us", Unit: "us", Better: "lower", Layer: "core", Moves: "neighbor.Send → last experiment's OnUpdate on a quiescent router; the end-to-end update latency, ungated"},
	{Name: "core.announce_propagate_p50_us", Unit: "us", Better: "lower", Layer: "core", Moves: "Client.Announce → last neighbor's OnUpdate; the end-to-end announce latency, ungated"},
	{Name: "core.ingest_to_export_us", Unit: "us", Better: "lower", Layer: "core", Moves: "core.update_propagate_p50_us @ fanout-wide, table-deep"},
	{Name: "core.fanout_span_us", Unit: "us", Better: "lower", Layer: "core", Moves: "core.update_propagate_p50_us, core.update_routes_per_s @ fanout-wide; one write @ table-deep"},
	{Name: "core.export_ns_per_route_per_exp", Unit: "ns", Better: "lower", Layer: "core", Moves: updWide + " (the slope in E)"},
	{Name: "core.export_allocs_per_route_per_exp", Unit: "count", Better: "lower", Layer: "core", Moves: "update_allocs_per_route @ fanout-wide"},
	{Name: "core.dump_first_block_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "core.dump_routes_per_s @ table-deep"},
	{Name: "core.router_bytes_per_route", Unit: "B", Better: "lower", Layer: "core", Moves: "mem_bytes_per_route @ table-deep"},
	{Name: "core.announce_sync_us", Unit: "us", Better: "lower", Layer: "core", Moves: "core.announce_propagate_p50_us, core.announce_routes_per_s @ announce-api"},
	// core, data plane. The first three are the issue's end-to-end
	// packet rates, demoted.
	{Name: "core.forward_pps", Unit: "1/s", Better: "higher", Layer: "core", Moves: "experiment LAN → neighbor sink, packets per second; ungated"},
	{Name: "core.inbound_pps", Unit: "1/s", Better: "higher", Layer: "core", Moves: "neighbor port → forwardInbound → bridge → tunnel → Client.OnPacket, packets per second; ungated"},
	{Name: "core.tunnel_forward_pps", Unit: "1/s", Better: "higher", Layer: "core", Moves: "Client.SendIP → tunnel → bridge → BPF → router → sink, packets per second; ungated"},
	{Name: "core.forward_ns_per_pkt", Unit: "ns", Better: "lower", Layer: "core", Moves: "core.forward_pps @ packet-forward"},
	{Name: "core.forward_self_ns", Unit: "ns", Better: "lower", Layer: "core", Moves: "core.forward_pps @ packet-forward"},
	{Name: "core.forward_bytes_per_pkt", Unit: "B", Better: "lower", Layer: "core", Moves: "forward_allocs_per_pkt @ packet-forward"},
	{Name: "core.forward_1400B_pps", Unit: "1/s", Better: "higher", Layer: "core", Moves: "core.forward_pps @ packet-forward (per-byte copy cost)"},
	{Name: "core.drops_per_mpkt", Unit: "count", Better: "lower", Layer: "core", Moves: "core.forward_pps @ packet-forward (must be 0)"},
	{Name: "core.forward_churn_pps", Unit: "1/s", Better: "higher", Layer: "core", Moves: "core.forward_pps under table churn; expected bimodal, not gated"},
	// netsim, ethernet, bpf, tunnel
	{Name: "netsim.send_ns_ports2", Unit: "ns", Better: "lower", Layer: "netsim", Moves: fwd},
	{Name: "netsim.send_ns_ports64", Unit: "ns", Better: "lower", Layer: "netsim", Moves: fwd + " (two sends per forwarded packet)"},
	{Name: "netsim.allocs_per_send", Unit: "count", Better: "lower", Layer: "netsim", Moves: "forward_allocs_per_pkt @ packet-forward"},
	{Name: "ethernet.decode_ns", Unit: "ns", Better: "lower", Layer: "ethernet", Moves: "core.forward_pps @ packet-forward"},
	{Name: "ethernet.marshal_ns", Unit: "ns", Better: "lower", Layer: "ethernet", Moves: "core.forward_pps @ packet-forward"},
	{Name: "ethernet.allocs_per_pkt", Unit: "count", Better: "lower", Layer: "ethernet", Moves: "forward_allocs_per_pkt @ packet-forward"},
	{Name: "bpf.srcfilter_run_ns", Unit: "ns", Better: "lower", Layer: "bpf", Moves: "core.tunnel_forward_pps @ packet-forward"},
	{Name: "tunnel.sendframe_ns", Unit: "ns", Better: "lower", Layer: "tunnel", Moves: "core.tunnel_forward_pps, core.inbound_pps @ packet-forward"},
	{Name: "tunnel.allocs_per_frame", Unit: "count", Better: "lower", Layer: "tunnel", Moves: "tunnel_allocs_per_pkt, inbound_allocs_per_pkt @ packet-forward"},
	{Name: "tunnel.overhead_ns_per_pkt", Unit: "ns", Better: "lower", Layer: "tunnel", Moves: "core.tunnel_forward_pps @ packet-forward"},
	// ctlplane, peering
	{Name: "ctlplane.store_create_ms", Unit: "ms", Better: "lower", Layer: "ctlplane", Moves: "ctlplane.api_commit_p50_ms @ announce-api"},
	{Name: "ctlplane.store_create_nowal_ms", Unit: "ms", Better: "lower", Layer: "ctlplane", Moves: "ctlplane.api_commit_p50_ms @ announce-api (isolates fsync)"},
	{Name: "ctlplane.wal_bytes_per_commit", Unit: "B", Better: "lower", Layer: "ctlplane", Moves: "api_wal_bytes_per_spec, ctlplane.api_commit_p50_ms @ announce-api"},
	// The API latencies, all ungated. api_commit_p50_ms is the issue's,
	// demoted: its quartile spread over ten runs of one build reached
	// 24.5 %. api_converge_p50_ms is the issue's, demoted: `converged` is
	// reported by the resync tick after the kick pass, so the latency is a
	// uniform draw over the 250 ms period plus the actuate latency, and no
	// affordable sample count steadies its median. What a code change can
	// move is the actuate latency; its rate form, ctlplane.api_specs_per_s, is the
	// gated one.
	{Name: "ctlplane.api_specs_per_s", Unit: "1/s", Better: "higher", Layer: "ctlplane", Moves: "one closed-loop client: POST → 201 → route at every neighbor, specs per second; the end-to-end API throughput, ungated"},
	{Name: "ctlplane.api_commit_p50_ms", Unit: "ms", Better: "lower", Layer: "ctlplane", Moves: "POST /v1/experiments → 201; ctlplane.api_specs_per_s @ announce-api"},
	{Name: "ctlplane.api_actuate_p50_ms", Unit: "ms", Better: "lower", Layer: "ctlplane", Moves: "POST → route at every neighbor (commit + the reconciler's kick pass); ctlplane.api_specs_per_s @ announce-api"},
	{Name: "ctlplane.api_converge_p50_ms", Unit: "ms", Better: "lower", Layer: "ctlplane", Moves: "POST → `converged` on /v1/watch; the end-to-end converge latency, ungated @ announce-api"},
	{Name: "ctlplane.http_overhead_ms", Unit: "ms", Better: "lower", Layer: "ctlplane", Moves: "ctlplane.api_commit_p50_ms, ctlplane.api_specs_per_s @ announce-api"},
	{Name: "ctlplane.actions_per_converge", Unit: "count", Better: "lower", Layer: "ctlplane", Moves: "ctlplane.api_actuate_p50_ms, ctlplane.api_specs_per_s @ announce-api"},
	{Name: "ctlplane.reconcile_passes_per_converge", Unit: "count", Better: "lower", Layer: "ctlplane", Moves: "ctlplane.api_converge_p50_ms @ announce-api"},
	{Name: "ctlplane.tick_wait_frac", Unit: "ratio", Better: "lower", Layer: "ctlplane", Moves: "ctlplane.api_converge_p50_ms @ announce-api (creates that waited over 0.8 of a resync period for `converged`)"},
	{Name: "peering.client_announce_us", Unit: "us", Better: "lower", Layer: "peering", Moves: "core.announce_routes_per_s @ announce-api"},
	{Name: "peering.sendip_ns", Unit: "ns", Better: "lower", Layer: "peering", Moves: "core.tunnel_forward_pps @ packet-forward"},
	// harness
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "context for every traced number"},
	{Name: "bench.round_iqr_frac", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "context for every time metric (machine noise)"},
	{Name: "bench.gc_cycles_per_round", Unit: "count", Better: "lower", Layer: "bench", Moves: "context for core.update_routes_per_s"},
}

// Seeds: claims are developed on defaultSeed and must also hold on
// holdoutSeed.
const (
	defaultSeed = 1
	holdoutSeed = 20190101
)
