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

// ValidationStateCommunity builds the large community stamping a
// route's RPKI validation state.
func ValidationStateCommunity(platformASN uint32, st rpki.State) bgp.LargeCommunity {
	return bgp.LargeCommunity{Global: platformASN, Local1: largeFnValidationState, Local2: uint32(st)}
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
	n.rovMu.Lock()
	if n.rovStates == nil {
		n.rovStates = make(map[netip.Prefix]rpki.State)
	}
	n.rovStates[prefix] = st
	n.rovMu.Unlock()
	return st
}

// forgetValidation drops the validation state recorded for neighbor n's
// route for prefix, which is being withdrawn.
func (r *Router) forgetValidation(n *Neighbor, prefix netip.Prefix) {
	if r.cfg.Validator == nil {
		return
	}
	n.rovMu.Lock()
	delete(n.rovStates, prefix)
	n.rovMu.Unlock()
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
	for _, n := range r.topo.Load().neighbors {
		type entry struct {
			prefix netip.Prefix
			attrs  *bgp.PathAttrs
		}
		var changed []entry
		n.Table.WalkBest(func(prefix netip.Prefix, best *rib.Path) bool {
			if best.Damped {
				return true // withheld until reuse, which stamps it afresh
			}
			origin := best.Attrs.OriginASN()
			if origin == 0 {
				origin = n.ASN
			}
			st := r.cfg.Validator.Validate(prefix, origin)
			n.rovMu.Lock()
			prev, ok := n.rovStates[prefix]
			n.rovMu.Unlock()
			if !ok || prev != st {
				changed = append(changed, entry{prefix, best.Attrs})
			}
			return true
		})
		col := r.newCollector()
		for _, e := range changed {
			col.exportToExperiments(n, e.prefix, e.attrs, false)
		}
		col.release()
	}
}
