package core

import (
	"net/netip"

	"repro/internal/bgp"
	"repro/internal/rib"
	"repro/internal/rpki"
)

// RPKI integration: the router does not drop Invalid neighbor routes —
// experiments are the consumers, and observing hijacks is a primary use
// case (paper §7.1) — but it annotates every route exported to an
// experiment with its validation state so experiments can filter or
// study by it, and it re-exports routes whose state changes as the
// validated cache converges over RTR.

// rovKey identifies one neighbor route's stamped validation state.
type rovKey struct {
	neighbor string
	prefix   netip.Prefix
}

// ValidationStateCommunity builds the large community stamping a
// route's RPKI validation state.
func ValidationStateCommunity(platformASN uint32, st rpki.State) bgp.LargeCommunity {
	return bgp.LargeCommunity{Global: platformASN, Local1: largeFnValidationState, Local2: uint32(st)}
}

// ValidationStateFrom extracts the platform's validation-state stamp
// from a route's large communities. ok is false when the route carries
// none.
func ValidationStateFrom(platformASN uint32, large []bgp.LargeCommunity) (st rpki.State, ok bool) {
	for _, c := range large {
		if c.Global == platformASN && c.Local1 == largeFnValidationState {
			return rpki.State(c.Local2), true
		}
	}
	return 0, false
}

// validationState classifies (prefix, origin of attrs) and records the
// verdict for RevalidateExports. It returns 0 when no validator is
// configured.
func (r *Router) validationState(n *Neighbor, prefix netip.Prefix, attrs *bgp.PathAttrs) rpki.State {
	if r.cfg.Validator == nil {
		return 0
	}
	origin := attrs.OriginASN()
	if origin == 0 {
		origin = n.ASN
	}
	st := r.cfg.Validator.Validate(prefix, origin)
	r.mu.Lock()
	if r.rovStates == nil {
		r.rovStates = make(map[rovKey]rpki.State)
	}
	r.rovStates[rovKey{n.Name, prefix}] = st
	r.mu.Unlock()
	return st
}

// stampValidation returns large with any existing validation-state
// community replaced by the fresh verdict, in a slice of its own.
func stampValidation(platformASN uint32, large []bgp.LargeCommunity, st rpki.State) []bgp.LargeCommunity {
	kept := make([]bgp.LargeCommunity, 0, len(large)+1)
	for _, c := range large {
		// A neighbor asserting our own stamp is spoofing; drop it.
		if c.Global == platformASN && c.Local1 == largeFnValidationState {
			continue
		}
		kept = append(kept, c)
	}
	return append(kept, ValidationStateCommunity(platformASN, st))
}

// RevalidateExports re-examines every neighbor route previously
// exported to experiments and re-exports those whose validation state
// changed since it was stamped — the hook an RTR client's OnChange
// drives, so a ROA added or revoked at the trust anchor flips routes
// held by experiments without any session restart.
func (r *Router) RevalidateExports() {
	if r.cfg.Validator == nil {
		return
	}
	r.mu.Lock()
	neighbors := make([]*Neighbor, 0, len(r.neighbors))
	for _, n := range r.neighbors {
		neighbors = append(neighbors, n)
	}
	states := make(map[rovKey]rpki.State, len(r.rovStates))
	for k, v := range r.rovStates {
		states[k] = v
	}
	r.mu.Unlock()

	for _, n := range neighbors {
		type entry struct {
			prefix netip.Prefix
			attrs  *bgp.PathAttrs
		}
		var changed []entry
		n.Table.WalkBest(func(prefix netip.Prefix, best *rib.Path) bool {
			origin := best.Attrs.OriginASN()
			if origin == 0 {
				origin = n.ASN
			}
			st := r.cfg.Validator.Validate(prefix, origin)
			if prev, ok := states[rovKey{n.Name, prefix}]; ok && prev == st {
				return true
			}
			changed = append(changed, entry{prefix, best.Attrs})
			return true
		})
		col := r.newCollector()
		for _, e := range changed {
			col.exportToExperiments(n, e.prefix, e.attrs, false)
		}
		col.release()
	}
}
