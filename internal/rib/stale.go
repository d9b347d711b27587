package rib

import (
	"net/netip"

	"repro/internal/bgp"
)

// Graceful-restart stale-path retention (RFC 4724 §4.2): when a session
// whose peer negotiated graceful restart drops, its Adj-RIB-In paths are
// marked stale instead of withdrawn, so forwarding continues while the
// peer restarts. Re-learning a path (same Peer and ID) replaces the
// stale copy through the normal Add path; whatever is still stale when
// End-of-RIB arrives — or when the restart timer lapses — is swept.

// MarkPeerStale marks every path learned from peer as stale, returning
// the number marked. Marking is copy-on-write: shared *Path values are
// never mutated, each marked slot gets a stale copy, so concurrent
// readers holding the old slice see consistent state. Shards are marked
// one at a time; readers may briefly see a partially marked table.
func (t *Table) MarkPeerStale(peer string) int {
	marked := 0
	t.eachShard(func(sh *shard) {
		t.lockWrite(sh)
		defer sh.mu.Unlock()
		var updates []tableEntry
		sh.trie.Walk(func(p netip.Prefix, paths []*Path) bool {
			changed := false
			for _, e := range paths {
				if e.Peer == peer && !e.Stale {
					changed = true
					break
				}
			}
			if !changed {
				return true
			}
			out := make([]*Path, len(paths))
			copy(out, paths)
			for i, e := range out {
				if e.Peer == peer && !e.Stale {
					c := *e
					c.Stale = true
					out[i] = &c
					marked++
				}
			}
			updates = append(updates, tableEntry{p, out})
			return true
		})
		for _, u := range updates {
			sh.trie.Insert(u.prefix, u.paths)
		}
	})
	ribStaleMarked.Add(uint64(marked))
	t.maybeSnapshot(0)
	return marked
}

// SweepStale removes every still-stale path learned from peer for the
// given family (v6 selects IPv6 prefixes), returning the removed paths.
// Paths re-learned since MarkPeerStale were replaced by fresh copies and
// survive. Safe to call late: it only ever removes paths still marked.
func (t *Table) SweepStale(peer string, v6 bool) []*Path {
	var removed []*Path
	t.eachShard(func(sh *shard) {
		t.lockWrite(sh)
		removed = append(removed, t.removeMatchingLocked(sh, func(p netip.Prefix, e *Path) bool {
			return p.Addr().Is6() == v6 && e.Peer == peer && e.Stale
		})...)
		sh.mu.Unlock()
	})
	n := len(removed)
	t.paths.Add(-int64(n))
	t.withdraws.Add(uint64(n))
	ribWithdraws.Add(uint64(n))
	ribStaleSwept.Add(uint64(n))
	ribPaths.Add(-int64(n))
	t.maybeSnapshot(0)
	return removed
}

// AdoptPath clears the stale mark on the path identified by the
// (prefix, peer, id) implicit-withdraw key, returning true when a
// stale copy was found. A restarted control plane calls this after
// verifying a graceful-restart-retained route still matches its
// recovered desired state: the route is re-claimed in place instead of
// re-announced, so no sweep removes it and no update budget is burned.
// Copy-on-write like MarkPeerStale — concurrent readers holding the
// old slice keep seeing consistent state.
func (t *Table) AdoptPath(prefix netip.Prefix, peer string, id bgp.PathID) bool {
	sh := t.shardFor(prefix)
	t.lockWrite(sh)
	adopted := false
	if paths, ok := sh.trie.Get(prefix); ok {
		for i, e := range paths {
			if e.Peer == peer && e.ID == id && e.Stale {
				out := make([]*Path, len(paths))
				copy(out, paths)
				c := *e
				c.Stale = false
				out[i] = &c
				sh.trie.Insert(prefix, out)
				adopted = true
				break
			}
		}
	}
	sh.mu.Unlock()
	if adopted {
		ribStaleAdopted.Inc()
		t.maybeSnapshot(0)
	}
	return adopted
}

// StaleCount returns how many of peer's paths are currently stale
// (both families).
func (t *Table) StaleCount(peer string) int {
	n := 0
	t.rlockAll()
	defer t.runlockAll()
	t.walkLocked(netip.Prefix{}, func(_ netip.Prefix, paths []*Path) bool {
		for _, e := range paths {
			if e.Peer == peer && e.Stale {
				n++
			}
		}
		return true
	})
	return n
}
