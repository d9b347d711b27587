package rib

import "net/netip"

// Flap-damping suppression (RFC 2439): a suppressed route is withheld
// from export but retained in the adj-RIB-in so the original
// announcement survives the suppression window and can be re-exported
// the moment the penalty decays below the reuse threshold. The guard
// layer decides *when* a route is suppressed; these helpers record the
// verdict on the stored paths.

// MarkDamped sets or clears the Damped flag on every path for prefix
// learned from peer, returning the number of paths whose flag changed.
// Like MarkPeerStale it is copy-on-write: shared *Path values are never
// mutated, so concurrent readers holding an old slice see consistent
// state. Note that re-adding a path through Table.Add installs a fresh
// (unmarked) copy; callers re-mark on each suppressed update.
func (t *Table) MarkDamped(prefix netip.Prefix, peer string, damped bool) int {
	sh := t.shardFor(prefix)
	t.lockWrite(sh)
	defer sh.mu.Unlock()
	paths, ok := sh.trie.Get(prefix)
	if !ok {
		return 0
	}
	changed := false
	for _, e := range paths {
		if e.Peer == peer && e.Damped != damped {
			changed = true
			break
		}
	}
	if !changed {
		return 0
	}
	out := make([]*Path, len(paths))
	copy(out, paths)
	marked := 0
	for i, e := range out {
		if e.Peer == peer && e.Damped != damped {
			c := *e
			c.Damped = damped
			out[i] = &c
			marked++
		}
	}
	sh.trie.Insert(prefix, out)
	return marked
}
