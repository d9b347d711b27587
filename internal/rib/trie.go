// Package rib implements the routing information bases a BGP router
// maintains: a binary radix (Patricia) trie keyed by prefix, per-peer
// Adj-RIBs, a Loc-RIB with the RFC 4271 §9.1 decision process, and
// forwarding tables with longest-prefix-match lookup. vBGP keeps one
// forwarding table per BGP neighbor (paper §3.2.2).
package rib

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
)

// trieNode is a node in a binary radix trie. Nodes with value==nil are
// internal branching points. The prefix is stored as its address
// normalized into the 128-bit space (IPv4 in the top 32 bits of hi, see
// addrHalves) plus the prefix length — 48 bytes per node instead of the
// 112 a netip.Prefix-keyed node costs, so a million-route trie fits
// twice as many nodes per cache line, allocates half the memory, and
// descents compare and branch on integers. The netip form is
// reconstructed on demand (nodePrefix) for walks and lookup results.
type trieNode[V any] struct {
	hi, lo   uint64
	bits     uint8
	value    *V
	children [2]*trieNode[V]
}

// Trie maps prefixes of one address family to values, supporting exact
// match, longest-prefix match, and ordered traversal. The zero Trie is
// empty but family-less; use NewTrie.
type Trie[V any] struct {
	root *trieNode[V]
	v6   bool
	size int
	// Nodes are carved out of chunked arenas (amortizing allocator and
	// GC-mark work over thousands of nodes) and recycled through a
	// freelist threaded via children[0] when pruned. Old chunks stay
	// reachable through the tree itself; arena holds only the chunk
	// currently being filled.
	arena []trieNode[V]
	free  *trieNode[V]
	// boxes, when it has room, is where a node's first value is stored
	// instead of a heap object of its own. Only a trie built for a
	// known number of prefixes has any (newTrieSized).
	boxes []V
}

// trieArenaMax caps arena chunk size; chunks double from 8 up to this,
// so small tries stay small and million-node tries allocate rarely.
const trieArenaMax = 4096

// NewTrie creates a trie for IPv4 (v6=false) or IPv6 (v6=true) prefixes.
func NewTrie[V any](v6 bool) *Trie[V] {
	t := &Trie[V]{v6: v6}
	t.root = t.newNode(0, 0, 0)
	return t
}

// newTrieSized creates a trie that will hold n prefixes and is then
// thrown away (the snapshot builder's scratch tries): its nodes — a
// radix trie over n prefixes has at most 2n, root included — and its
// value boxes come from two allocations made here, so filling it
// allocates nothing more.
func newTrieSized[V any](v6 bool, n int) *Trie[V] {
	t := &Trie[V]{v6: v6, arena: make([]trieNode[V], 0, 2*n+1), boxes: make([]V, 0, n)}
	t.root = t.newNode(0, 0, 0)
	return t
}

// newNode returns a valueless node keyed (hi, lo, nb), reusing a pruned
// node when one is free.
func (t *Trie[V]) newNode(hi, lo uint64, nb int) *trieNode[V] {
	if n := t.free; n != nil {
		t.free = n.children[0]
		*n = trieNode[V]{hi: hi, lo: lo, bits: uint8(nb)}
		return n
	}
	if len(t.arena) == cap(t.arena) {
		next := 2 * cap(t.arena)
		if next < 8 {
			next = 8
		}
		if next > trieArenaMax {
			next = trieArenaMax
		}
		t.arena = make([]trieNode[V], 0, next)
	}
	t.arena = t.arena[:len(t.arena)+1]
	n := &t.arena[len(t.arena)-1]
	n.hi, n.lo, n.bits = hi, lo, uint8(nb)
	return n
}

// freeNode recycles a detached node into the freelist.
func (t *Trie[V]) freeNode(n *trieNode[V]) {
	*n = trieNode[V]{}
	n.children[0] = t.free
	t.free = n
}

// nodePrefix reconstructs the netip form of a node's key.
func (t *Trie[V]) nodePrefix(n *trieNode[V]) netip.Prefix {
	if t.v6 {
		var raw [16]byte
		binary.BigEndian.PutUint64(raw[:8], n.hi)
		binary.BigEndian.PutUint64(raw[8:], n.lo)
		return netip.PrefixFrom(netip.AddrFrom16(raw), int(n.bits))
	}
	var raw [4]byte
	binary.BigEndian.PutUint32(raw[:], uint32(n.hi>>32))
	return netip.PrefixFrom(netip.AddrFrom4(raw), int(n.bits))
}

// Len returns the number of prefixes with values in the trie.
func (t *Trie[V]) Len() int { return t.size }

// bit128 returns bit i (0 = most significant) of a normalized 128-bit
// address.
func bit128(hi, lo uint64, i int) int {
	if i < 64 {
		return int(hi>>(63-i)) & 1
	}
	return int(lo>>(127-i)) & 1
}

// common128 returns the length of the longest common prefix of two
// normalized addresses, capped at max.
func common128(ahi, alo, bhi, blo uint64, max int) int {
	n := bits.LeadingZeros64(ahi ^ bhi)
	if n == 64 {
		n += bits.LeadingZeros64(alo ^ blo)
	}
	if n > max {
		n = max
	}
	return n
}

// contains128 reports whether the nbits-long prefix keyed (nhi, nlo)
// contains the normalized address (hi, lo). Shifts of 64 or more are
// zero in Go, so nbits 0, 64, and 128 all fall out correctly.
func contains128(nhi, nlo uint64, nbits int, hi, lo uint64) bool {
	if nbits <= 64 {
		return (nhi^hi)>>(64-uint(nbits)) == 0
	}
	return nhi == hi && (nlo^lo)>>(128-uint(nbits)) == 0
}

// mask128 returns the netmask of an nbits-long prefix in normalized
// form.
func mask128(nbits int) (maskHi, maskLo uint64) {
	if nbits <= 64 {
		return ^uint64(0) << (64 - uint(nbits)), 0 // nbits==0 shifts out to 0
	}
	return ^uint64(0), ^uint64(0) << (128 - uint(nbits))
}

func (t *Trie[V]) check(p netip.Prefix) netip.Prefix {
	if p.Addr().Is6() != t.v6 {
		panic(fmt.Sprintf("rib: %s in %s trie", p, map[bool]string{true: "IPv6", false: "IPv4"}[t.v6]))
	}
	return p.Masked()
}

// Insert sets the value for prefix p, replacing any existing value.
func (t *Trie[V]) Insert(p netip.Prefix, v V) {
	t.Upsert(p, func(V, bool) V { return v })
}

// Upsert sets the value for prefix p to fn(old, existed) in a single
// descent — the read-modify-write the RIB's add path performs per
// route, without paying for a Get descent followed by an Insert
// descent.
func (t *Trie[V]) Upsert(p netip.Prefix, fn func(old V, ok bool) V) {
	p = t.check(p)
	hi, lo, _ := addrHalves(p.Addr())
	pb := p.Bits()
	// A node keeps the box its first value got: later values overwrite
	// it in place. Nothing holds a pointer into a box — Get, Lookup and
	// Walk hand out copies.
	set := func(n *trieNode[V]) {
		if n.value != nil {
			*n.value = fn(*n.value, true)
			return
		}
		t.size++
		if len(t.boxes) < cap(t.boxes) {
			t.boxes = t.boxes[:len(t.boxes)+1]
			n.value = &t.boxes[len(t.boxes)-1]
		} else {
			n.value = new(V)
		}
		*n.value = fn(*n.value, false)
	}
	n := t.root
	for {
		if int(n.bits) == pb && n.hi == hi && n.lo == lo {
			set(n)
			return
		}
		b := bit128(hi, lo, int(n.bits))
		child := n.children[b]
		if child == nil {
			leaf := t.newNode(hi, lo, pb)
			set(leaf)
			n.children[b] = leaf
			return
		}
		cb := common128(hi, lo, child.hi, child.lo, min(pb, int(child.bits)))
		if cb >= int(child.bits) {
			// child's prefix contains p: descend.
			n = child
			continue
		}
		// Split: insert a branching node covering the common bits.
		bmHi, bmLo := mask128(cb)
		branch := t.newNode(child.hi&bmHi, child.lo&bmLo, cb)
		n.children[b] = branch
		branch.children[bit128(child.hi, child.lo, cb)] = child
		if cb == pb {
			// p itself is the branch prefix (keys already match: cb bits
			// are common with p and p has exactly cb bits).
			set(branch)
			return
		}
		leaf := t.newNode(hi, lo, pb)
		set(leaf)
		branch.children[bit128(hi, lo, cb)] = leaf
		return
	}
}

// Remove deletes the value for prefix p, reporting whether it was present.
// Structural cleanup is conservative: empty leaves are pruned, pass-through
// branch nodes are collapsed.
func (t *Trie[V]) Remove(p netip.Prefix) bool {
	p = t.check(p)
	hi, lo, _ := addrHalves(p.Addr())
	pb := p.Bits()
	var parent *trieNode[V]
	var parentIdx int
	n := t.root
	for n != nil {
		nb := int(n.bits)
		if nb == pb && n.hi == hi && n.lo == lo {
			if n.value == nil {
				return false
			}
			n.value = nil
			t.size--
			t.prune(parent, parentIdx, n)
			return true
		}
		if nb >= pb || !contains128(n.hi, n.lo, nb, hi, lo) {
			return false
		}
		parent, parentIdx = n, bit128(hi, lo, nb)
		n = n.children[parentIdx]
	}
	return false
}

// prune removes or collapses a now-valueless node, recycling it.
func (t *Trie[V]) prune(parent *trieNode[V], idx int, n *trieNode[V]) {
	if parent == nil || n.value != nil {
		return
	}
	switch {
	case n.children[0] == nil && n.children[1] == nil:
		parent.children[idx] = nil
	case n.children[0] == nil:
		parent.children[idx] = n.children[1]
	case n.children[1] == nil:
		parent.children[idx] = n.children[0]
	default:
		return // both children present: n stays as a branch point
	}
	t.freeNode(n)
}

// Get returns the value stored for exactly prefix p.
func (t *Trie[V]) Get(p netip.Prefix) (V, bool) {
	p = t.check(p)
	hi, lo, _ := addrHalves(p.Addr())
	pb := p.Bits()
	n := t.root
	for n != nil {
		nb := int(n.bits)
		if nb == pb && n.hi == hi && n.lo == lo {
			if n.value != nil {
				return *n.value, true
			}
			break
		}
		if nb >= pb || !contains128(n.hi, n.lo, nb, hi, lo) {
			break
		}
		n = n.children[bit128(hi, lo, nb)]
	}
	var zero V
	return zero, false
}

// Lookup returns the value of the longest prefix containing addr.
func (t *Trie[V]) Lookup(addr netip.Addr) (netip.Prefix, V, bool) {
	if addr.Is6() != t.v6 {
		var zero V
		return netip.Prefix{}, zero, false
	}
	hi, lo, maxBits := addrHalves(addr)
	var best *trieNode[V]
	n := t.root
	for n != nil {
		nb := int(n.bits)
		if !contains128(n.hi, n.lo, nb, hi, lo) {
			break
		}
		if n.value != nil {
			best = n
		}
		if nb == int(maxBits) {
			break
		}
		n = n.children[bit128(hi, lo, nb)]
	}
	if best == nil {
		var zero V
		return netip.Prefix{}, zero, false
	}
	return t.nodePrefix(best), *best.value, true
}

// Walk visits every stored prefix/value pair in depth-first order; the
// traversal stops if fn returns false.
func (t *Trie[V]) Walk(fn func(p netip.Prefix, v V) bool) {
	var rec func(n *trieNode[V]) bool
	rec = func(n *trieNode[V]) bool {
		if n == nil {
			return true
		}
		if n.value != nil && !fn(t.nodePrefix(n), *n.value) {
			return false
		}
		return rec(n.children[0]) && rec(n.children[1])
	}
	rec(t.root)
}

// walkAfter is Walk restricted to the prefixes that follow after in
// walk order — (address, length), which is what depth-first preorder
// over masked keys produces — so a walk interrupted at after resumes
// where it stopped. Subtrees that end before after's address are
// skipped whole: a resumed walk costs the descent to its cursor, not a
// scan from the root.
func (t *Trie[V]) walkAfter(after netip.Prefix, fn func(p netip.Prefix, v V) bool) {
	chi, clo, _ := addrHalves(after.Addr())
	cb := uint8(after.Bits())
	var rec func(n *trieNode[V]) bool
	rec = func(n *trieNode[V]) bool {
		if n == nil {
			return true
		}
		// Every key below n lies inside n's range.
		maskHi, maskLo := mask128(int(n.bits))
		if lastHi, lastLo := n.hi|^maskHi, n.lo|^maskLo; lastHi < chi || (lastHi == chi && lastLo < clo) {
			return true
		}
		follows := n.hi > chi || (n.hi == chi && (n.lo > clo || (n.lo == clo && n.bits > cb)))
		if follows && n.value != nil && !fn(t.nodePrefix(n), *n.value) {
			return false
		}
		return rec(n.children[0]) && rec(n.children[1])
	}
	rec(t.root)
}

// DualTrie pairs an IPv4 and an IPv6 trie behind one interface.
type DualTrie[V any] struct {
	v4, v6 *Trie[V]
}

// NewDualTrie creates an empty dual-family trie.
func NewDualTrie[V any]() *DualTrie[V] {
	return &DualTrie[V]{v4: NewTrie[V](false), v6: NewTrie[V](true)}
}

func (d *DualTrie[V]) pick(is6 bool) *Trie[V] {
	if is6 {
		return d.v6
	}
	return d.v4
}

// Insert sets the value for p.
func (d *DualTrie[V]) Insert(p netip.Prefix, v V) { d.pick(p.Addr().Is6()).Insert(p, v) }

// Upsert sets the value for p to fn(old, existed) in one descent.
func (d *DualTrie[V]) Upsert(p netip.Prefix, fn func(old V, ok bool) V) {
	d.pick(p.Addr().Is6()).Upsert(p, fn)
}

// Remove deletes p, reporting whether it was present.
func (d *DualTrie[V]) Remove(p netip.Prefix) bool { return d.pick(p.Addr().Is6()).Remove(p) }

// Get returns the value stored for exactly p.
func (d *DualTrie[V]) Get(p netip.Prefix) (V, bool) { return d.pick(p.Addr().Is6()).Get(p) }

// Lookup returns the longest-prefix match for addr.
func (d *DualTrie[V]) Lookup(a netip.Addr) (netip.Prefix, V, bool) {
	return d.pick(a.Is6()).Lookup(a)
}

// Len returns the number of stored prefixes across both families.
func (d *DualTrie[V]) Len() int { return d.v4.Len() + d.v6.Len() }

// walkFamily visits one family's entries in depth-first order —
// those following after, when after is a prefix of that family —
// reporting whether the walk ran to completion.
func (d *DualTrie[V]) walkFamily(v6 bool, after netip.Prefix, fn func(p netip.Prefix, v V) bool) bool {
	done := true
	visit := func(p netip.Prefix, v V) bool {
		if !fn(p, v) {
			done = false
		}
		return done
	}
	if after.IsValid() {
		d.pick(v6).walkAfter(after, visit)
	} else {
		d.pick(v6).Walk(visit)
	}
	return done
}

// Walk visits IPv4 entries then IPv6 entries.
func (d *DualTrie[V]) Walk(fn func(p netip.Prefix, v V) bool) {
	stop := false
	d.v4.Walk(func(p netip.Prefix, v V) bool {
		if !fn(p, v) {
			stop = true
			return false
		}
		return true
	})
	if stop {
		return
	}
	d.v6.Walk(fn)
}
