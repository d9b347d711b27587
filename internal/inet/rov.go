package inet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"repro/internal/rpki"
)

// This file wires RPKI route origin validation and Peerlock route-leak
// defense into the synthetic Internet. Deployment is partial by design:
// real-world ROV adoption is a fraction of networks, and the
// interesting experimental question (the sweep in
// TestROVSweepShrinksHijackAndPeerlockBlocksLeak) is how hijack
// catchment shrinks as that fraction grows.

// SetValidator installs the validator backing every ROV-deploying AS.
// Pass an *rpki.Store (shared trust-anchor view) or an *rpki.Client
// (live RTR-synchronized cache).
func (t *Topology) SetValidator(v rpki.Validator) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.validator = v
}

// DeployROV enables ROV at a deterministic pseudo-random fraction of
// all ASes (0 ≤ fraction ≤ 1) and disables it everywhere else. The
// selection depends only on (fraction, seed) and the AS set, so sweeps
// are reproducible. Returns how many ASes now validate.
func (t *Topology) DeployROV(fraction float64, seed int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	asns := make([]uint32, 0, len(t.ases))
	for asn := range t.ases {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(asns), func(i, j int) { asns[i], asns[j] = asns[j], asns[i] })
	n := int(float64(len(asns))*fraction + 0.5)
	if n > len(asns) {
		n = len(asns)
	}
	for i, asn := range asns {
		t.ases[asn].rov = i < n
	}
	return n
}

// AddPeerlock installs a route-leak protection rule at an AS (typically
// a transit network protecting a tier-1 peer).
func (t *Topology) AddPeerlock(asn uint32, rule rpki.Peerlock) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.ases[asn]
	if a == nil {
		return fmt.Errorf("inet: unknown AS %d", asn)
	}
	a.peerlocks = append(a.peerlocks, rule)
	return nil
}

// admitSecureLocked applies the receiving AS's security filters to a
// candidate route. path is the full candidate path with dst first; the
// neighbor the route arrives from is path[1] (absent for external
// injections with an empty received path).
func (t *Topology) admitSecureLocked(dst *AS, prefix netip.Prefix, path []uint32) bool {
	if len(dst.peerlocks) > 0 && len(path) >= 2 {
		if rpki.AnyBlocked(dst.peerlocks, path[1], path[1:]) {
			t.leakDrops++
			return false
		}
	}
	if dst.rov && t.validator != nil && len(path) > 0 {
		if t.validator.Validate(prefix, path[len(path)-1]) == rpki.Invalid {
			t.rovDrops++
			return false
		}
	}
	return true
}

// SecurityDrops reports how many candidate routes ROV and Peerlock
// filters have rejected across the topology's lifetime.
func (t *Topology) SecurityDrops() (rov, leak uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rovDrops, t.leakDrops
}
