package rib

import (
	"net/netip"
	"testing"
)

// TestTrieWalkAfterResumes: for every stored prefix, and for cursors
// that are not stored, walkAfter visits exactly the tail of Walk's
// sequence that follows the cursor.
func TestTrieWalkAfterResumes(t *testing.T) {
	for _, v6 := range []bool{false, true} {
		tr := NewTrie[int](v6)
		var cursors []netip.Prefix
		for i, p := range shardTestPrefixes() {
			if p.Addr().Is6() == v6 {
				tr.Insert(p, i)
			} else {
				continue
			}
			// A neighbor of p that is (almost certainly) absent.
			if q, err := p.Addr().Prefix(max(p.Bits()-1, 0)); err == nil {
				cursors = append(cursors, q)
			}
			cursors = append(cursors, p)
		}
		var all []netip.Prefix
		tr.Walk(func(p netip.Prefix, _ int) bool { all = append(all, p); return true })
		if len(all) < 20 {
			t.Fatalf("fixture holds only %d prefixes of family v6=%v", len(all), v6)
		}
		for _, after := range cursors {
			var want []netip.Prefix
			for _, p := range all {
				if cmpPrefix(p, after) > 0 {
					want = append(want, p)
				}
			}
			var got []netip.Prefix
			tr.walkAfter(after, func(p netip.Prefix, _ int) bool { got = append(got, p); return true })
			if len(got) != len(want) {
				t.Fatalf("walkAfter(%s) visited %d prefixes, want %d", after, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("walkAfter(%s)[%d] = %s, want %s", after, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReadBestStreamsWholeTable: reading a table in blocks of every
// awkward size yields WalkBest's sequence exactly once each, for every
// shard layout, with the callback run once per block.
func TestReadBestStreamsWholeTable(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		tb, _ := snapshotFixture(t, shards)
		var want []Route
		tb.WalkBest(func(p netip.Prefix, b *Path) bool { want = append(want, Route{p, b}); return true })
		for _, block := range []int{1, 2, 7, len(want) - 1, len(want), len(want) + 1} {
			var got []Route
			buf := make([]Route, block)
			var after netip.Prefix
			calls := 0
			for {
				n := tb.ReadBest(after, buf, func(routes []Route) {
					calls++
					got = append(got, routes...)
				})
				if n < len(buf) {
					break
				}
				after = buf[n-1].Prefix
			}
			if len(got) != len(want) {
				t.Fatalf("shards=%d block=%d: read %d routes, want %d", shards, block, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d block=%d: route %d is %s, want %s", shards, block, i, got[i].Prefix, want[i].Prefix)
				}
			}
			if wantCalls := len(want)/block + 1; calls != wantCalls {
				t.Errorf("shards=%d block=%d: callback ran %d times, want %d", shards, block, calls, wantCalls)
			}
		}
	}
}

// TestReadBestSeesChangesBehindCursor: a resumed read reflects what
// changed between blocks — a prefix added past the cursor is delivered,
// one removed past it is not.
func TestReadBestSeesChangesBehindCursor(t *testing.T) {
	tb := NewTable("stream")
	for i := 0; i < 64; i++ {
		tb.Add(&Path{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16), Peer: "a", Attrs: attrsVia(65001)})
	}
	buf := make([]Route, 16)
	n := tb.ReadBest(netip.Prefix{}, buf, func([]Route) {})
	after := buf[n-1].Prefix
	added, removed := pfx("10.40.128.0/17"), pfx("10.50.0.0/16")
	tb.Add(&Path{Prefix: added, Peer: "a", Attrs: attrsVia(65001)})
	tb.Withdraw(removed, "a", 0)
	seen := map[netip.Prefix]bool{}
	for {
		n := tb.ReadBest(after, buf, func(routes []Route) {
			for _, r := range routes {
				seen[r.Prefix] = true
			}
		})
		if n < len(buf) {
			break
		}
		after = buf[n-1].Prefix
	}
	if !seen[added] || seen[removed] || len(seen) != 64-16 {
		t.Fatalf("resumed read: added seen=%v, removed seen=%v, %d routes (want 48)", seen[added], seen[removed], len(seen))
	}
}

// TestTrieUpsertOverwritesInPlace: replacing a value allocates nothing
// and never disturbs a copy handed out earlier.
func TestTrieUpsertOverwritesInPlace(t *testing.T) {
	tr := NewTrie[[]int](false)
	p := pfx("10.0.0.0/8")
	tr.Insert(p, []int{1})
	first, _ := tr.Get(p)
	next := []int{2, 3}
	if allocs := testing.AllocsPerRun(100, func() {
		tr.Upsert(p, func(old []int, ok bool) []int { return next })
	}); allocs != 0 {
		t.Errorf("replacing a value allocated %.0f objects, want 0", allocs)
	}
	if got, _ := tr.Get(p); len(got) != 2 || len(first) != 1 || first[0] != 1 {
		t.Fatalf("after replace: stored %v, earlier copy %v", got, first)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replacing one prefix", tr.Len())
	}
}

// TestSnapshotBuildAllocationsFlat: a snapshot rebuild costs a fixed
// number of allocations, not one per route.
func TestSnapshotBuildAllocationsFlat(t *testing.T) {
	build := func(routes int) float64 {
		tb := NewTable("allocs")
		for i := 0; i < routes; i++ {
			tb.Add(&Path{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(1 + i>>16), byte(i >> 8), byte(i), 0}), 24), Peer: "a", Attrs: attrsVia(65001)})
		}
		return testing.AllocsPerRun(5, func() { tb.BuildSnapshot() })
	}
	small, large := build(512), build(8192)
	if large > small+8 {
		t.Errorf("BuildSnapshot allocates %.0f objects at 8192 routes against %.0f at 512: not flat in table size", large, small)
	}
}
