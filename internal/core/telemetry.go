package core

import (
	"time"

	"repro/internal/telemetry"
)

// routerMetrics holds the per-PoP counters a router resolves once in
// NewRouter. Each series carries the pop label so a multi-PoP platform
// (one process, many routers) stays distinguishable in one registry.
type routerMetrics struct {
	// tableSelections counts data-plane packets whose destination MAC
	// selected a per-neighbor table (§3.2.2's per-packet route choice).
	tableSelections *telemetry.Counter
	// backboneForwards counts frames sent across the backbone (remote
	// neighbor egress and inbound relay to the owning PoP).
	backboneForwards *telemetry.Counter
	// macRewrites counts inbound frames whose source MAC was rewritten
	// to a per-neighbor attribution MAC.
	macRewrites *telemetry.Counter
	// drops counts frames addressed to the forwarder that it refused, by
	// reason (core_dataplane_drops_total{pop,reason}).
	drops [numDropReasons]*telemetry.Counter
	// nexthopRewrites counts neighbor routes re-advertised to
	// experiments with the next hop rewritten to a local pool address.
	nexthopRewrites *telemetry.Counter
	// backboneRewrites counts routes from other PoPs re-rewritten into
	// local per-neighbor state (the hop-by-hop rewrite of §4.4).
	backboneRewrites *telemetry.Counter
	// addPathExports counts UPDATEs sent to experiment sessions carrying
	// platform ADD-PATH identifiers.
	addPathExports *telemetry.Counter
	// Overload-shedding counters (guard_* namespace: the actions belong
	// to the guard layer even though the router executes them).
	shedTelemetry     *telemetry.Counter
	shedAnnouncements *telemetry.Counter
	shedSessions      *telemetry.Counter
}

func newRouterMetrics(pop string) routerMetrics {
	reg := telemetry.Default()
	pl := telemetry.L("pop", pop)
	m := routerMetrics{
		tableSelections:  reg.Counter("core_table_selections_total", pl),
		backboneForwards: reg.Counter("core_backbone_forwards_total", pl),
		macRewrites:      reg.Counter("core_mac_rewrites_total", pl),
		nexthopRewrites:  reg.Counter("core_nexthop_rewrites_total", pl),
		backboneRewrites: reg.Counter("core_backbone_rewrites_total", pl),
		addPathExports:   reg.Counter("core_addpath_exports_total", pl),

		shedTelemetry:     reg.Counter("guard_shed_telemetry_total", pl),
		shedAnnouncements: reg.Counter("guard_shed_announcements_total", pl),
		shedSessions:      reg.Counter("guard_shed_sessions_total", pl),
	}
	for why, name := range dropReasonNames {
		m.drops[why] = reg.Counter("core_dataplane_drops_total", pl, telemetry.L("reason", name))
	}
	return m
}

// emit sends a monitoring event to the configured monitor queue, filling
// in the PoP name and timestamp. A nil Monitor makes this a no-op; a
// full queue drops (counted by the emitter) rather than blocking the
// control plane.
func (r *Router) emit(e telemetry.Event) {
	if r.cfg.Monitor == nil {
		return
	}
	// First shedding stage: a degraded PoP drops monitoring emission —
	// the lowest-priority work — before touching routing behavior.
	if r.shedTelemetry.Load() {
		r.metrics.shedTelemetry.Inc()
		return
	}
	e.PoP = r.cfg.Name
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r.cfg.Monitor.Emit(e)
}

func closeReason(err error) string {
	if err == nil {
		return "administrative shutdown"
	}
	return err.Error()
}

// syncNeighborRoutesGauge publishes the neighbor's current Adj-RIB-In
// occupancy (core_neighbor_routes{pop,neighbor}).
func (r *Router) syncNeighborRoutesGauge(n *Neighbor) {
	if n.routesGauge != nil {
		n.routesGauge.Set(int64(n.Table.PathCount()))
	}
}
