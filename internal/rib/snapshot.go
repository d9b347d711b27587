package rib

import (
	"encoding/binary"
	"net/netip"
)

// Copy-on-write FIB snapshots: the winning best path per prefix,
// flattened into a compressed read-only trie the dataplane hits without
// touching shard locks.
//
// Consistency rules (the contract the snapshot tests lock in):
//
//  1. A snapshot is immutable after construction and published with a
//     single atomic pointer swap — readers see either the old or the
//     new snapshot in full, never a torn mix.
//  2. A snapshot records the table's mutation version, captured while
//     the builder holds every shard read lock (so no mutation is in
//     flight). Table.Lookup consults the snapshot only when that
//     version still matches the live counter: a stale snapshot is never
//     served, it only wastes the memory until the next rebuild.
//  3. Rebuilds are single-flight: concurrent triggers collapse into one
//     builder goroutine, and publication order follows build order, so
//     the versions of successive published snapshots are monotonic.

// Snapshot is an immutable flattened copy of a Table's best paths. All
// nodes of one family live in a single contiguous slice linked by int32
// indexes rather than pointers, in depth-first preorder — so a linear
// scan is an ordered walk, lookups are pointer-chase-free, and the GC
// sees one allocation per family instead of one per node.
type Snapshot struct {
	version uint64
	routes  int
	v4, v6  snapTrie
}

type snapNode struct {
	prefix netip.Prefix
	// keyHi/keyLo and maskHi/maskLo are the prefix pre-masked into the
	// 128-bit address space (IPv4 occupies the top 32 bits), so the
	// containment test on the hot lookup path is four integer ops
	// instead of a netip.Prefix.Contains call per node.
	keyHi, keyLo   uint64
	maskHi, maskLo uint64
	bits           uint8
	// path is the decision-process winner for prefix; nil marks a pure
	// branch node.
	path        *Path
	left, right int32 // node indexes; -1 = none
}

type snapTrie struct {
	nodes []snapNode
	// rootStart/rootBest index the trie by the address's top 16 bits:
	// lookups start at the node a plain descent would reach after
	// consuming those bits, with the best path accumulated on the way —
	// skipping the cache-missing upper levels of a million-route trie.
	// Built only for large tries (snapRootMin); nil means start at 0.
	rootStart []int32
	rootBest  []*Path
}

// snapRootMin is the node count above which a snapshot trie gets the
// 16-bit root index (below it, the table itself costs more than the
// levels it skips).
const snapRootMin = 1 << 13

// addrHalves normalizes an address into the 128-bit space used by the
// snapshot's integer containment tests.
func addrHalves(addr netip.Addr) (hi, lo uint64, maxBits uint8) {
	if addr.Is6() {
		raw := addr.As16()
		return binary.BigEndian.Uint64(raw[:8]), binary.BigEndian.Uint64(raw[8:]), 128
	}
	raw := addr.As4()
	return uint64(binary.BigEndian.Uint32(raw[:])) << 32, 0, 32
}

// Version returns the table mutation count this snapshot captured.
func (s *Snapshot) Version() uint64 { return s.version }

// Routes returns the number of prefixes with a best path.
func (s *Snapshot) Routes() int { return s.routes }

// Lookup returns the best path for the longest prefix containing addr,
// or nil. It takes no locks and never allocates beyond the address
// bytes.
func (s *Snapshot) Lookup(addr netip.Addr) *Path {
	if addr.Is6() {
		return s.v6.lookup(addr)
	}
	return s.v4.lookup(addr)
}

// Walk visits every prefix and its best path, IPv4 first then IPv6,
// each family ordered by (address, prefix length) — the same order as
// Table.Walk.
func (s *Snapshot) Walk(fn func(prefix netip.Prefix, best *Path) bool) {
	if s.v4.walk(fn) {
		s.v6.walk(fn)
	}
}

func (st *snapTrie) lookup(addr netip.Addr) *Path {
	if len(st.nodes) == 0 {
		return nil
	}
	hi, lo, maxBits := addrHalves(addr)
	var best *Path
	i := int32(0)
	if st.rootStart != nil {
		w := hi >> 48
		best = st.rootBest[w]
		i = st.rootStart[w]
	}
	for i >= 0 {
		n := &st.nodes[i]
		if hi&n.maskHi != n.keyHi || lo&n.maskLo != n.keyLo {
			break
		}
		if n.path != nil {
			best = n.path
		}
		b := n.bits
		if b >= maxBits {
			break
		}
		var bit uint64
		if b < 64 {
			bit = hi >> (63 - b) & 1
		} else {
			bit = lo >> (127 - b) & 1
		}
		if bit == 0 {
			i = n.left
		} else {
			i = n.right
		}
	}
	return best
}

func (st *snapTrie) walk(fn func(prefix netip.Prefix, best *Path) bool) bool {
	// Nodes are stored in DFS preorder, so a linear scan visits
	// prefixes in (address, length) order.
	for i := range st.nodes {
		if n := &st.nodes[i]; n.path != nil && !fn(n.prefix, n.path) {
			return false
		}
	}
	return true
}

// flattenTrie packs a builder trie into the contiguous preorder array.
// The builder nodes already carry normalized integer keys, so the flat
// nodes copy them directly; the netip form is materialized once per
// node for Walk.
func flattenTrie(tr *Trie[*Path]) snapTrie {
	st := snapTrie{nodes: make([]snapNode, 0, 2*tr.Len()+1)}
	var rec func(n *trieNode[*Path]) int32
	rec = func(n *trieNode[*Path]) int32 {
		if n == nil {
			return -1
		}
		idx := int32(len(st.nodes))
		var p *Path
		if n.value != nil {
			p = *n.value
		}
		maskHi, maskLo := mask128(int(n.bits))
		st.nodes = append(st.nodes, snapNode{
			prefix: tr.nodePrefix(n),
			keyHi:  n.hi, keyLo: n.lo, maskHi: maskHi, maskLo: maskLo, bits: n.bits,
			path: p, left: -1, right: -1,
		})
		l := rec(n.children[0])
		r := rec(n.children[1])
		st.nodes[idx].left, st.nodes[idx].right = l, r
		return idx
	}
	rec(tr.root)
	st.buildRoot()
	return st
}

// buildRoot fills the 16-bit root index by running the first 16 bits of
// every possible descent once at build time. Entries are conservative:
// the runtime loop re-checks full containment from the start node, so a
// stop at a node deeper than 16 bits stays correct.
func (st *snapTrie) buildRoot() {
	if len(st.nodes) < snapRootMin {
		return
	}
	st.rootStart = make([]int32, 1<<16)
	st.rootBest = make([]*Path, 1<<16)
	for w := uint64(0); w < 1<<16; w++ {
		hi := w << 48
		var best *Path
		i := int32(0)
		for i >= 0 {
			n := &st.nodes[i]
			if n.bits >= 16 {
				// Containment and branching need address bits the index
				// key does not cover; the runtime descent takes over.
				break
			}
			if hi&n.maskHi != n.keyHi {
				i = -1
				break
			}
			if n.path != nil {
				best = n.path
			}
			if hi>>(63-n.bits)&1 == 0 {
				i = n.left
			} else {
				i = n.right
			}
		}
		st.rootStart[w] = i
		st.rootBest[w] = best
	}
}

// BuildSnapshot flattens the current best paths into a new immutable
// snapshot, publishes it as the table's current one, and returns it.
// The table view is captured under all shard read locks (so it is
// atomic); the flatten itself runs after the locks are released.
func (t *Table) BuildSnapshot() *Snapshot {
	routes := 0
	t.rlockAll()
	version := t.version.Load()
	// The scratch tries are sized for the prefixes the shards hold right
	// now, so a rebuild costs a fixed number of allocations, not one per
	// route.
	n4, n6 := t.spill.trie.v4.Len(), t.spill.trie.v6.Len()
	for _, sh := range t.shards {
		n4, n6 = n4+sh.trie.v4.Len(), n6+sh.trie.v6.Len()
	}
	tmp4, tmp6 := newTrieSized[*Path](false, n4), newTrieSized[*Path](true, n6)
	t.walkLocked(netip.Prefix{}, func(p netip.Prefix, paths []*Path) bool {
		if b := Best(paths); b != nil {
			if p.Addr().Is6() {
				tmp6.Insert(p, b)
			} else {
				tmp4.Insert(p, b)
			}
			routes++
		}
		return true
	})
	t.runlockAll()
	snap := &Snapshot{version: version, routes: routes, v4: flattenTrie(tmp4), v6: flattenTrie(tmp6)}
	t.snap.Store(snap)
	ribSnapshotBuilds.Inc()
	return snap
}

// EnableAutoSnapshot turns on automatic snapshot maintenance: an
// initial snapshot is built synchronously, and thereafter any mutation
// that leaves the snapshot at least every mutations behind — or any
// lookup that misses the snapshot — schedules a single-flight
// background rebuild. Passing every <= 0 disables auto maintenance
// (explicit BuildSnapshot still works).
func (t *Table) EnableAutoSnapshot(every int) {
	if every <= 0 {
		t.snapEvery.Store(0)
		return
	}
	t.snapEvery.Store(uint64(every))
	t.BuildSnapshot()
}

// maybeSnapshot schedules a background rebuild when auto snapshots are
// enabled and the current snapshot is at least minStale mutations
// behind (minStale 0 means the configured interval). Single-flight:
// while one builder runs, further triggers are dropped; the next
// mutation or missed lookup re-arms.
func (t *Table) maybeSnapshot(minStale uint64) {
	every := t.snapEvery.Load()
	if every == 0 {
		return
	}
	if minStale == 0 {
		minStale = every
	}
	if s := t.snap.Load(); s != nil && t.version.Load()-s.version < minStale {
		return
	}
	if !t.snapBuilding.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer t.snapBuilding.Store(false)
		t.BuildSnapshot()
	}()
}
