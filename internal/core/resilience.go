package core

import (
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/rib"
)

// Graceful-restart retention plumbing (RFC 4724 §4): when a resilient
// session drops, the down-handlers mark the peer's paths stale instead
// of withdrawing them, keeping forwarding state intact while the peer
// restarts. Re-advertisements replace the stale copies through the
// normal update path; whatever is still stale when End-of-RIB arrives
// for a family — or when the restart window lapses without one — is
// swept here and the resulting withdrawals propagated exactly as a
// live withdrawal would be.

// neighborEndOfRIB sweeps a neighbor family once the restarted peer
// signals that its re-advertisement is complete.
func (r *Router) neighborEndOfRIB(n *Neighbor, fam bgp.AFISAFI) {
	r.sweepNeighborStale(n, fam == bgp.IPv6Unicast)
	if n.Table.StaleCount(n.Name) == 0 {
		n.sessMu.Lock()
		if n.staleTimer != nil {
			n.staleTimer.Stop()
			n.staleTimer = nil
		}
		n.sessMu.Unlock()
	}
}

// armNeighborFlush (re)arms the restart timer that flushes still-stale
// paths if the peer never finishes restarting (RFC 4724 §4.2's "stale
// timer").
func (r *Router) armNeighborFlush(n *Neighbor) {
	n.sessMu.Lock()
	defer n.sessMu.Unlock()
	if n.staleTimer != nil {
		n.staleTimer.Stop()
	}
	n.staleTimer = time.AfterFunc(n.gr, func() {
		n.sessMu.Lock()
		n.staleTimer = nil
		n.sessMu.Unlock()
		r.logf("neighbor %s: restart window lapsed, flushing stale paths", n.Name)
		r.sweepNeighborStale(n, false)
		r.sweepNeighborStale(n, true)
	})
}

// sweepNeighborStale removes a neighbor's still-stale paths for one
// family and propagates the resulting route changes to experiments and
// (for local neighbors) the backbone mesh.
func (r *Router) sweepNeighborStale(n *Neighbor, v6 bool) {
	removed := n.Table.SweepStale(n.Name, v6)
	if r.defaultTable != nil {
		r.defaultTable.SweepStale(n.Name, v6)
	}
	r.syncNeighborRoutesGauge(n)
	seen := make(map[netip.Prefix]bool, len(removed))
	col := r.newCollector()
	defer col.release()
	for _, p := range removed {
		if seen[p.Prefix] {
			continue
		}
		seen[p.Prefix] = true
		// A fresh (re-advertised) path that survives is re-exported, so
		// downstream state converges on the post-restart route.
		best := n.Table.Best(p.Prefix)
		var attrs *bgp.PathAttrs
		if best != nil {
			attrs = best.Attrs
		}
		col.exportToExperiments(n, p.Prefix, attrs, best == nil)
		if !n.Remote {
			col.exportToMesh(n, p.Prefix, attrs, best == nil)
		}
	}
}

// experimentEndOfRIB sweeps an experiment family once the reconnected
// client finishes replaying its announcements.
func (r *Router) experimentEndOfRIB(e *expConn, fam bgp.AFISAFI) {
	r.sweepExperimentStale(e.name, fam == bgp.IPv6Unicast)
	if r.expRoutes.StaleCount(e.name) == 0 {
		r.disarmExperimentFlush(e.name)
	}
}

// armExperimentFlush (re)arms the per-experiment restart timer.
func (r *Router) armExperimentFlush(name string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.expStale[name]; t != nil {
		t.Stop()
	}
	r.expStale[name] = time.AfterFunc(d, func() {
		r.mu.Lock()
		delete(r.expStale, name)
		r.mu.Unlock()
		r.logf("experiment %s: restart window lapsed, flushing stale routes", name)
		r.sweepExperimentStale(name, false)
		r.sweepExperimentStale(name, true)
	})
}

// disarmExperimentFlush stops and forgets owner's restart timer, if any.
func (r *Router) disarmExperimentFlush(owner string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.expStale[owner]; t != nil {
		t.Stop()
		delete(r.expStale, owner)
	}
}

// AdoptExperimentRoute clears the graceful-restart stale mark on one
// experiment route: a restarted control plane that verified the
// retained route still matches its recovered desired state re-claims
// it in place, so neither the restart-window flush nor a re-announce
// (with its update-budget cost) is needed. Returns whether a stale
// copy was found. The pending flush timer is disarmed once no stale
// routes remain for the owner.
func (r *Router) AdoptExperimentRoute(owner string, prefix netip.Prefix, id bgp.PathID) bool {
	if !r.expRoutes.AdoptPath(prefix, owner, id) {
		return false
	}
	if r.expRoutes.StaleCount(owner) == 0 {
		r.disarmExperimentFlush(owner)
	}
	return true
}

// PurgeExperiment withdraws every route owned by owner — both
// families, live or stale — without policy enforcement, and disarms
// any pending restart flush. This is the teardown half of orphan
// reconciliation: announcements whose desired object did not survive a
// control-plane crash must not keep dangling in the synthetic
// Internet. Returns how many routes were withdrawn.
func (r *Router) PurgeExperiment(owner string) int {
	r.disarmExperimentFlush(owner)
	type ver struct {
		prefix netip.Prefix
		id     bgp.PathID
	}
	var vers []ver
	r.expRoutes.Walk(func(prefix netip.Prefix, paths []*rib.Path) bool {
		for _, p := range paths {
			if p.Peer == owner {
				vers = append(vers, ver{prefix, p.ID})
			}
		}
		return true
	})
	for _, v := range vers {
		r.withdrawExperimentRoute(owner, v.prefix, v.id, false)
	}
	return len(vers)
}

// sweepExperimentStale removes an owner's still-stale experiment routes
// for one family, re-synchronizes neighbor exports and relays the
// withdrawals into the mesh (unless the owner itself is a mesh peer).
func (r *Router) sweepExperimentStale(owner string, v6 bool) {
	removed := r.expRoutes.SweepStale(owner, v6)
	for _, p := range removed {
		r.syncPrefix(p.Prefix)
		if !isMeshOwner(owner) {
			r.relayExperimentRouteToMesh(p.Prefix, p.ID, nil, true)
		}
	}
}

// meshPeerEndOfRIB sweeps backbone-learned state once a restarted mesh
// peer finishes replaying its dump. Mesh-peer teardown is coarse (a
// down peer stales every remote-neighbor table, mirroring the eager
// withdrawal of the non-graceful path), so the sweep covers every
// remote neighbor plus the peer's relayed experiment routes.
func (r *Router) meshPeerEndOfRIB(p *meshPeer, fam bgp.AFISAFI) {
	v6 := fam == bgp.IPv6Unicast
	for _, n := range r.remoteNeighbors() {
		r.sweepNeighborStale(n, v6)
	}
	r.sweepExperimentStale("mesh:"+p.name, v6)
	if r.meshStaleRemaining(p) == 0 {
		p.mu.Lock()
		if p.staleTimer != nil {
			p.staleTimer.Stop()
			p.staleTimer = nil
		}
		p.mu.Unlock()
	}
}

// armMeshFlush (re)arms the restart timer for a mesh peer.
func (r *Router) armMeshFlush(p *meshPeer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.staleTimer != nil {
		p.staleTimer.Stop()
	}
	p.staleTimer = time.AfterFunc(p.gr, func() {
		p.mu.Lock()
		p.staleTimer = nil
		p.mu.Unlock()
		r.logf("mesh peer %s: restart window lapsed, flushing stale state", p.name)
		for _, n := range r.remoteNeighbors() {
			r.sweepNeighborStale(n, false)
			r.sweepNeighborStale(n, true)
		}
		r.sweepExperimentStale("mesh:"+p.name, false)
		r.sweepExperimentStale("mesh:"+p.name, true)
	})
}

// meshStaleRemaining counts stale state attributable to a mesh peer's
// restart.
func (r *Router) meshStaleRemaining(p *meshPeer) int {
	total := r.expRoutes.StaleCount("mesh:" + p.name)
	for _, n := range r.remoteNeighbors() {
		total += n.Table.StaleCount(n.Name)
	}
	return total
}

// remoteNeighbors lists the backbone-learned neighbors.
func (r *Router) remoteNeighbors() []*Neighbor {
	var out []*Neighbor
	for _, n := range r.topo.Load().neighbors {
		if n.Remote {
			out = append(out, n)
		}
	}
	return out
}

// markRemoteNeighborsStale stales every remote-neighbor table and the
// mesh peer's relayed experiment routes, returning how many paths were
// marked.
func (r *Router) markRemoteNeighborsStale(p *meshPeer) int {
	marked := r.expRoutes.MarkPeerStale("mesh:" + p.name)
	for _, n := range r.remoteNeighbors() {
		marked += n.Table.MarkPeerStale(n.Name)
		if r.defaultTable != nil {
			r.defaultTable.MarkPeerStale(n.Name)
		}
	}
	return marked
}
