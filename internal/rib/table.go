package rib

import (
	"math/bits"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/internal/bgp"
)

// DefaultShards is the shard count NewTable uses. Sixteen shards keep
// the per-table fixed cost negligible (a few empty trie roots) while
// removing essentially all write-lock contention at full-table scale —
// the paper's AMS-IX PoP carries 2.7M routes across 854 peers (§4.2),
// and a single-lock trie serializes every one of them.
const DefaultShards = 16

// maxShards caps the shard count at 256 so the shard index always fits
// in the leading byte of the address.
const maxShards = 256

// shard is one slice of a Table: a lock and the trie it guards.
type shard struct {
	mu   sync.RWMutex
	trie *DualTrie[[]*Path]
}

// Table is a routing information base holding, per prefix, every path
// currently known. It serves as an Adj-RIB-In (holding one peer's paths),
// an Adj-RIB-Out, or a Loc-RIB (holding all peers' paths), depending on
// what the caller feeds it. Paths are keyed by (Peer, ID) within a
// prefix: adding a path with the same key replaces the previous one, the
// implicit-withdraw rule of RFC 4271 §3.1.
//
// The table is sharded by prefix range: a prefix's leading shardBits
// bits select its shard, each shard has its own lock and trie, and
// prefixes too short to have shardBits bits land in a spill shard.
// Because all prefixes that can contain an address share its leading
// bits (or are shorter than shardBits), longest-prefix match needs at
// most one shard plus the spill — never a cross-shard search. Counters
// are lock-free atomics, so stats readers never touch shard locks.
//
// Table is safe for concurrent use.
type Table struct {
	// Name labels the table in logs ("loc-rib", "adj-in:AMS-IX-RS1", ...).
	Name string

	shardBits uint8
	shards    []*shard
	spill     *shard // prefixes shorter than shardBits

	paths     atomic.Int64
	adds      atomic.Uint64
	withdraws atomic.Uint64

	// version counts mutations; it is bumped inside the shard critical
	// section, so a snapshot built under all shard read locks observes a
	// stable value that exactly identifies the table state it captured.
	version atomic.Uint64

	// snap is the current copy-on-write FIB snapshot (see snapshot.go).
	snap         atomic.Pointer[Snapshot]
	snapEvery    atomic.Uint64
	snapBuilding atomic.Bool

	// Read/write accounting, all lock-free. writeLocks counts shard
	// write-lock acquisitions and is incremented only on mutation paths:
	// the ribscale benchmark guard asserts its delta stays zero across a
	// pure-lookup phase, catching any accidental serialization of reads.
	lookups       atomic.Uint64
	snapLookups   atomic.Uint64
	lockedLookups atomic.Uint64
	writeLocks    atomic.Uint64
}

// NewTable creates an empty table with DefaultShards shards.
func NewTable(name string) *Table { return NewTableShards(name, DefaultShards) }

// NewTableShards creates an empty table with the given shard count,
// rounded up to a power of two and clamped to [1, 256]. shards=1 is the
// pre-sharding single-lock layout; the ribscale benchmark uses it as
// its contention baseline.
func NewTableShards(name string, shards int) *Table {
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	t := &Table{
		Name:      name,
		shardBits: uint8(bits.TrailingZeros(uint(n))),
		shards:    make([]*shard, n),
		spill:     &shard{trie: NewDualTrie[[]*Path]()},
	}
	for i := range t.shards {
		t.shards[i] = &shard{trie: NewDualTrie[[]*Path]()}
	}
	return t
}

// shardIndex maps a prefix to its shard: the leading shardBits bits of
// the address, or len(shards) (the spill) for prefixes too short to
// have them.
func (t *Table) shardIndex(p netip.Prefix) int {
	if t.shardBits == 0 {
		return 0
	}
	if p.Bits() < int(t.shardBits) {
		return len(t.shards)
	}
	return t.addrShard(p.Addr())
}

// addrShard returns the index of the shard owning prefixes that start
// at addr (callers must handle the spill themselves).
func (t *Table) addrShard(a netip.Addr) int {
	if t.shardBits == 0 {
		return 0
	}
	var b0 byte
	if a.Is6() {
		b0 = a.As16()[0]
	} else {
		b0 = a.As4()[0]
	}
	return int(b0 >> (8 - t.shardBits))
}

func (t *Table) shardAt(i int) *shard {
	if i == len(t.shards) {
		return t.spill
	}
	return t.shards[i]
}

func (t *Table) shardFor(p netip.Prefix) *shard { return t.shardAt(t.shardIndex(p)) }

// lockWrite acquires sh's write lock, counting the acquisition and
// bumping the mutation version inside the critical section.
func (t *Table) lockWrite(sh *shard) {
	t.writeLocks.Add(1)
	sh.mu.Lock()
	t.version.Add(1)
}

// rlockAll takes every lock in the table (spill first, then shards in
// index order) for operations that need an atomic cross-shard view.
// Mutators only ever hold one shard lock at a time, so the fixed order
// cannot deadlock against them.
func (t *Table) rlockAll() {
	t.spill.mu.RLock()
	for _, sh := range t.shards {
		sh.mu.RLock()
	}
}

func (t *Table) runlockAll() {
	for i := len(t.shards) - 1; i >= 0; i-- {
		t.shards[i].mu.RUnlock()
	}
	t.spill.mu.RUnlock()
}

// eachShard visits every shard including the spill.
func (t *Table) eachShard(fn func(sh *shard)) {
	for _, sh := range t.shards {
		fn(sh)
	}
	if t.shardBits > 0 {
		fn(t.spill)
	}
}

// Add inserts or replaces the path identified by (p.Peer, p.ID) for
// p.Prefix. It returns the path it replaced, if any.
func (t *Table) Add(p *Path) *Path {
	sh := t.shardFor(p.Prefix)
	t.lockWrite(sh)
	replaced := t.addLocked(sh, p)
	sh.mu.Unlock()
	t.adds.Add(1)
	ribAdds.Inc()
	if replaced == nil {
		t.paths.Add(1)
		ribPaths.Add(1)
	}
	t.maybeSnapshot(0)
	return replaced
}

// AddBatch inserts every path, grouping them by shard so each shard's
// write lock is taken at most once per call instead of once per path,
// with churn counters updated once per batch. A batch within one shard
// — every one-route UPDATE — is installed without grouping.
func (t *Table) AddBatch(paths []*Path) {
	if len(paths) == 0 {
		return
	}
	fresh := 0
	add := func(i int, group []*Path) {
		sh := t.shardAt(i)
		t.lockWrite(sh)
		for _, p := range group {
			if t.addLocked(sh, p) == nil {
				fresh++
			}
		}
		sh.mu.Unlock()
	}
	if i, ok := t.oneShard(len(paths), func(k int) netip.Prefix { return paths[k].Prefix }); ok {
		add(i, paths)
	} else {
		buckets := make([][]*Path, len(t.shards)+1)
		for _, p := range paths {
			i := t.shardIndex(p.Prefix)
			buckets[i] = append(buckets[i], p)
		}
		for i, group := range buckets {
			if len(group) > 0 {
				add(i, group)
			}
		}
	}
	t.adds.Add(uint64(len(paths)))
	ribAdds.Add(uint64(len(paths)))
	if fresh > 0 {
		t.paths.Add(int64(fresh))
		ribPaths.Add(int64(fresh))
	}
	t.maybeSnapshot(0)
}

// oneShard returns the shard all n prefixes fall in, prefix(k) being
// the k-th, and whether they do all fall in one.
func (t *Table) oneShard(n int, prefix func(k int) netip.Prefix) (int, bool) {
	i := t.shardIndex(prefix(0))
	for k := 1; k < n; k++ {
		if t.shardIndex(prefix(k)) != i {
			return 0, false
		}
	}
	return i, true
}

// addLocked inserts p under sh's write lock and returns the replaced
// path, if any. Callers maintain the add/path counters.
func (t *Table) addLocked(sh *shard, p *Path) *Path {
	var replaced *Path
	sh.trie.Upsert(p.Prefix, func(existing []*Path, _ bool) []*Path {
		for i, e := range existing {
			if e.Peer == p.Peer && e.ID == p.ID {
				out := make([]*Path, len(existing))
				copy(out, existing)
				out[i] = p
				replaced = e
				return out
			}
		}
		return append(append(make([]*Path, 0, len(existing)+1), existing...), p)
	})
	return replaced
}

// Withdraw removes the path identified by (peer, id) for prefix,
// returning the removed path or nil.
func (t *Table) Withdraw(prefix netip.Prefix, peer string, id bgp.PathID) *Path {
	sh := t.shardFor(prefix)
	t.lockWrite(sh)
	removed := t.withdrawLocked(sh, prefix, peer, id)
	sh.mu.Unlock()
	t.withdraws.Add(1)
	ribWithdraws.Inc()
	if removed != nil {
		t.paths.Add(-1)
		ribPaths.Add(-1)
	}
	t.maybeSnapshot(0)
	return removed
}

// WithdrawRequest names one path to remove: the (prefix, peer, path ID)
// key of the implicit-withdraw rule.
type WithdrawRequest struct {
	Prefix netip.Prefix
	Peer   string
	ID     bgp.PathID
}

// WithdrawBatch removes the named paths, taking each shard's write lock
// at most once. The result is aligned with reqs: removed[i] is the path
// removed for reqs[i], or nil if it was not present. Like AddBatch, it
// groups requests by shard only when they span several.
func (t *Table) WithdrawBatch(reqs []WithdrawRequest) []*Path {
	removed := make([]*Path, len(reqs))
	if len(reqs) == 0 {
		return removed
	}
	gone := 0
	// remove withdraws n requests under shard i's write lock, req(k)
	// being the index of the k-th.
	remove := func(i, n int, req func(k int) int) {
		sh := t.shardAt(i)
		t.lockWrite(sh)
		for k := range n {
			ri := req(k)
			r := reqs[ri]
			if removed[ri] = t.withdrawLocked(sh, r.Prefix, r.Peer, r.ID); removed[ri] != nil {
				gone++
			}
		}
		sh.mu.Unlock()
	}
	if i, ok := t.oneShard(len(reqs), func(k int) netip.Prefix { return reqs[k].Prefix }); ok {
		remove(i, len(reqs), func(k int) int { return k })
	} else {
		buckets := make([][]int, len(t.shards)+1)
		for ri, r := range reqs {
			i := t.shardIndex(r.Prefix)
			buckets[i] = append(buckets[i], ri)
		}
		for i, idxs := range buckets {
			if len(idxs) > 0 {
				remove(i, len(idxs), func(k int) int { return idxs[k] })
			}
		}
	}
	t.withdraws.Add(uint64(len(reqs)))
	ribWithdraws.Add(uint64(len(reqs)))
	if gone > 0 {
		t.paths.Add(int64(-gone))
		ribPaths.Add(int64(-gone))
	}
	t.maybeSnapshot(0)
	return removed
}

// withdrawLocked removes the named path under sh's write lock. Callers
// maintain the withdraw/path counters.
func (t *Table) withdrawLocked(sh *shard, prefix netip.Prefix, peer string, id bgp.PathID) *Path {
	existing, ok := sh.trie.Get(prefix)
	if !ok {
		return nil
	}
	for i, e := range existing {
		if e.Peer == peer && e.ID == id {
			out := append(append([]*Path(nil), existing[:i]...), existing[i+1:]...)
			if len(out) == 0 {
				sh.trie.Remove(prefix)
			} else {
				sh.trie.Insert(prefix, out)
			}
			return e
		}
	}
	return nil
}

// WithdrawPeer removes every path learned from peer, returning the
// removed paths. Used when a session goes down. Shards are swept one at
// a time, so concurrent readers may briefly observe a partial removal.
func (t *Table) WithdrawPeer(peer string) []*Path {
	var removed []*Path
	t.eachShard(func(sh *shard) {
		t.lockWrite(sh)
		removed = append(removed, t.removeMatchingLocked(sh, func(_ netip.Prefix, e *Path) bool {
			return e.Peer == peer
		})...)
		sh.mu.Unlock()
	})
	n := len(removed)
	t.paths.Add(-int64(n))
	t.withdraws.Add(uint64(n))
	ribWithdraws.Add(uint64(n))
	ribPaths.Add(-int64(n))
	t.maybeSnapshot(0)
	return removed
}

// removeMatchingLocked removes every path in sh for which match returns
// true, returning them. The caller holds sh's write lock and owns the
// path/withdraw counter updates.
func (t *Table) removeMatchingLocked(sh *shard, match func(p netip.Prefix, e *Path) bool) []*Path {
	var removed []*Path
	var updates []tableEntry
	sh.trie.Walk(func(p netip.Prefix, paths []*Path) bool {
		var left []*Path
		for _, e := range paths {
			if match(p, e) {
				removed = append(removed, e)
			} else {
				left = append(left, e)
			}
		}
		if len(left) != len(paths) {
			updates = append(updates, tableEntry{p, left})
		}
		return true
	})
	for _, u := range updates {
		if len(u.paths) == 0 {
			sh.trie.Remove(u.prefix)
		} else {
			sh.trie.Insert(u.prefix, u.paths)
		}
	}
	return removed
}

// Paths returns the paths known for prefix (shared slice: do not modify).
func (t *Table) Paths(prefix netip.Prefix) []*Path {
	sh := t.shardFor(prefix)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	paths, _ := sh.trie.Get(prefix)
	return paths
}

// Best returns the decision-process winner for prefix, or nil.
func (t *Table) Best(prefix netip.Prefix) *Path {
	return Best(t.Paths(prefix))
}

// Lookup returns the best path for the longest prefix containing addr.
//
// When a fresh FIB snapshot exists (see BuildSnapshot) the lookup is
// answered from it without touching any lock; otherwise it falls back
// to the owning shard's read lock (plus the spill for short prefixes).
// The snapshot is consulted only when its version matches the table's
// mutation counter, so a stale snapshot is never served.
func (t *Table) Lookup(addr netip.Addr) *Path {
	t.lookups.Add(1)
	if s := t.snap.Load(); s != nil && s.version == t.version.Load() {
		t.snapLookups.Add(1)
		return s.Lookup(addr)
	}
	t.lockedLookups.Add(1)
	t.maybeSnapshot(1)
	sh := t.shards[t.addrShard(addr)]
	sh.mu.RLock()
	_, paths, ok := sh.trie.Lookup(addr)
	sh.mu.RUnlock()
	if !ok && t.shardBits > 0 {
		// No match among prefixes long enough to be sharded; the only
		// remaining candidates are the short (super-net) prefixes in the
		// spill shard.
		t.spill.mu.RLock()
		_, paths, ok = t.spill.trie.Lookup(addr)
		t.spill.mu.RUnlock()
	}
	if !ok {
		return nil
	}
	return Best(paths)
}

// tableEntry pairs a prefix with its paths, for buffered walks.
type tableEntry struct {
	prefix netip.Prefix
	paths  []*Path
}

// cmpPrefix orders prefixes of one address family by (address, length)
// — exactly the order a single trie's depth-first walk produces.
func cmpPrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

// Walk visits every prefix and its paths, IPv4 first then IPv6, each
// family ordered by (address, prefix length). The order is identical
// for every shard count — shard i holds only prefixes whose leading
// bits equal i, so visiting shards in index order and merge-sorting the
// spill in keeps history segments and CLI dumps byte-stable. All shard
// locks are held for the duration, so the view is atomic. The callback
// must not retain or modify the slice.
func (t *Table) Walk(fn func(prefix netip.Prefix, paths []*Path) bool) {
	t.rlockAll()
	defer t.runlockAll()
	t.walkLocked(netip.Prefix{}, fn)
}

// walkLocked implements Walk, from the start or (after valid) from the
// prefix following after; callers hold all shard read locks (or
// otherwise have exclusive access).
func (t *Table) walkLocked(after netip.Prefix, fn func(prefix netip.Prefix, paths []*Path) bool) {
	if after.IsValid() && after.Addr().Is6() {
		t.walkFamilyLocked(true, after, fn)
	} else if t.walkFamilyLocked(false, after, fn) {
		t.walkFamilyLocked(true, netip.Prefix{}, fn)
	}
}

func (t *Table) walkFamilyLocked(v6 bool, after netip.Prefix, fn func(prefix netip.Prefix, paths []*Path) bool) bool {
	var spill []tableEntry
	if t.shardBits > 0 {
		t.spill.trie.walkFamily(v6, after, func(p netip.Prefix, paths []*Path) bool {
			spill = append(spill, tableEntry{p, paths})
			return true
		})
	}
	shards := t.shards
	if after.IsValid() {
		// Earlier shards hold only smaller addresses.
		shards = shards[t.addrShard(after.Addr()):]
	}
	si := 0
	cont := true
	for _, sh := range shards {
		sh.trie.walkFamily(v6, after, func(p netip.Prefix, paths []*Path) bool {
			for si < len(spill) && cmpPrefix(spill[si].prefix, p) < 0 {
				if !fn(spill[si].prefix, spill[si].paths) {
					cont = false
					return false
				}
				si++
			}
			if !fn(p, paths) {
				cont = false
				return false
			}
			return true
		})
		if !cont {
			return false
		}
	}
	for ; si < len(spill); si++ {
		if !fn(spill[si].prefix, spill[si].paths) {
			return false
		}
	}
	return true
}

// WalkBest visits every prefix with its decision-process winner.
func (t *Table) WalkBest(fn func(prefix netip.Prefix, best *Path) bool) {
	t.Walk(func(p netip.Prefix, paths []*Path) bool {
		if b := Best(paths); b != nil {
			return fn(p, b)
		}
		return true
	})
}

// Route is a prefix with its decision-process winner.
type Route struct {
	Prefix netip.Prefix
	Best   *Path
}

// ReadBest is the resumable WalkBest table dumps stream from: it fills
// buf with the routes that follow after in Walk order (the zero Prefix
// starts at the beginning) and calls fn on them while still holding the
// table's read locks — what fn does with the routes is atomic with
// respect to every mutation of the table, which is what lets a dump
// order its blocks against incremental exports. fn must not block. It
// returns how many routes it read: fewer than len(buf) means the table
// is exhausted, otherwise the caller continues from
// buf[len(buf)-1].Prefix, with the locks released in between.
func (t *Table) ReadBest(after netip.Prefix, buf []Route, fn func([]Route)) int {
	t.rlockAll()
	defer t.runlockAll()
	n := 0
	if len(buf) > 0 {
		t.walkLocked(after, func(p netip.Prefix, paths []*Path) bool {
			if b := Best(paths); b != nil {
				buf[n] = Route{p, b}
				n++
			}
			return n < len(buf)
		})
	}
	fn(buf[:n])
	return n
}

// PathCount returns the total number of paths across all prefixes.
func (t *Table) PathCount() int { return int(t.paths.Load()) }

// TableStats is a point-in-time sample of a table's lock-free
// read/write accounting.
type TableStats struct {
	// Adds and Withdraws count mutations, for churn accounting in the
	// update-rate experiments (paper Fig. 6b).
	Adds      uint64
	Withdraws uint64
	// Lookups counts Lookup calls; SnapshotLookups of those were served
	// by the lock-free FIB snapshot, LockedLookups fell back to shard
	// read locks.
	Lookups         uint64
	SnapshotLookups uint64
	LockedLookups   uint64
	// WriteLocks counts shard write-lock acquisitions. Only mutations
	// acquire write locks; a pure-lookup phase must leave it unchanged.
	WriteLocks uint64
	// Version is the table's mutation counter; SnapshotVersion is the
	// mutation count captured by the current FIB snapshot (zero when no
	// snapshot exists). Equal values mean the snapshot is fresh.
	Version         uint64
	SnapshotVersion uint64
}

// Stats samples the table's counters without taking any lock.
func (t *Table) Stats() TableStats {
	st := TableStats{
		Adds:            t.adds.Load(),
		Withdraws:       t.withdraws.Load(),
		Lookups:         t.lookups.Load(),
		SnapshotLookups: t.snapLookups.Load(),
		LockedLookups:   t.lockedLookups.Load(),
		WriteLocks:      t.writeLocks.Load(),
		Version:         t.version.Load(),
	}
	if s := t.snap.Load(); s != nil {
		st.SnapshotVersion = s.version
	}
	return st
}

// FIBEntry is a forwarding table entry: the resolved next hop for a
// prefix and the logical output port.
type FIBEntry struct {
	NextHop netip.Addr
	// Out names the egress: a vBGP neighbor name or backbone peer.
	Out string
}

// FIB is a forwarding information base with longest-prefix-match lookup.
// vBGP maintains one FIB per BGP neighbor so that the destination MAC of
// each experiment frame selects the neighbor's table (paper §3.2.2).
type FIB struct {
	Name string

	mu   sync.RWMutex
	trie *DualTrie[FIBEntry]
}

// NewFIB creates an empty forwarding table.
func NewFIB(name string) *FIB {
	return &FIB{Name: name, trie: NewDualTrie[FIBEntry]()}
}

// Set installs or replaces the entry for prefix.
func (f *FIB) Set(prefix netip.Prefix, e FIBEntry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.trie.Insert(prefix, e)
}

// Lookup returns the longest-prefix-match entry for addr.
func (f *FIB) Lookup(addr netip.Addr) (FIBEntry, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, e, ok := f.trie.Lookup(addr)
	return e, ok
}

// Len returns the number of entries.
func (f *FIB) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.trie.Len()
}
