package rib

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// snapshotFixture fills a table with the mixed shard-test prefix set
// and returns the reference map of winners.
func snapshotFixture(t *testing.T, shards int) (*Table, map[netip.Prefix]*Path) {
	t.Helper()
	tb := NewTableShards("snap", shards)
	ref := map[netip.Prefix]*Path{}
	for i, p := range shardTestPrefixes() {
		best := &Path{Prefix: p, Peer: "a", Attrs: attrsVia(65001), EBGP: true, Seq: uint64(2*i + 1)}
		tb.Add(&Path{Prefix: p, Peer: "b", Attrs: attrsVia(65002, 65003), EBGP: true, Seq: uint64(2*i + 2)})
		tb.Add(best)
		ref[p] = best
	}
	return tb, ref
}

// TestSnapshotLookupMatchesTable checks the flattened FIB agrees with
// the live table (and the brute-force reference) on every probe, and
// that a fresh snapshot actually serves Table.Lookup.
func TestSnapshotLookupMatchesTable(t *testing.T) {
	tb, ref := snapshotFixture(t, 16)
	s := tb.BuildSnapshot()
	if s.Routes() != len(ref) {
		t.Fatalf("snapshot Routes() = %d, want %d", s.Routes(), len(ref))
	}
	probes := []netip.Addr{
		ip("0.0.0.1"), ip("10.1.2.3"), ip("129.0.0.1"), ip("203.0.113.7"),
		ip("255.255.255.255"), ip("::1"), ip("2001:db8::1"), ip("2001:db8:1::9"),
		ip("fe80::1"),
	}
	for p := range ref {
		probes = append(probes, p.Addr())
	}
	before := tb.Stats()
	for _, a := range probes {
		want := bruteLookup(ref, a)
		if got := s.Lookup(a); got != want {
			t.Errorf("Snapshot.Lookup(%s) = %v, want %v", a, got, want)
		}
		if got := tb.Lookup(a); got != want {
			t.Errorf("Table.Lookup(%s) = %v, want %v", a, got, want)
		}
	}
	st := tb.Stats()
	if served := st.SnapshotLookups - before.SnapshotLookups; served != uint64(len(probes)) {
		t.Errorf("snapshot served %d of %d lookups", served, len(probes))
	}
}

// TestSnapshotWalkMatchesTableWalk checks the preorder flat array
// reproduces Table.WalkBest exactly: same prefixes, same winners, same
// order.
func TestSnapshotWalkMatchesTableWalk(t *testing.T) {
	tb, _ := snapshotFixture(t, 16)
	s := tb.BuildSnapshot()
	type ent struct {
		p netip.Prefix
		b *Path
	}
	var fromTable, fromSnap []ent
	tb.WalkBest(func(p netip.Prefix, best *Path) bool {
		fromTable = append(fromTable, ent{p, best})
		return true
	})
	s.Walk(func(p netip.Prefix, best *Path) bool {
		fromSnap = append(fromSnap, ent{p, best})
		return true
	})
	if len(fromTable) != len(fromSnap) {
		t.Fatalf("walk lengths: table %d, snapshot %d", len(fromTable), len(fromSnap))
	}
	for i := range fromTable {
		if fromTable[i] != fromSnap[i] {
			t.Fatalf("walk[%d]: table (%s, %v), snapshot (%s, %v)",
				i, fromTable[i].p, fromTable[i].b, fromSnap[i].p, fromSnap[i].b)
		}
	}
}

// TestSnapshotStaleNeverServed pins consistency rule 2: after a
// mutation, the outdated snapshot must not answer Table.Lookup — the
// table falls back to the locked path and returns the new route.
func TestSnapshotStaleNeverServed(t *testing.T) {
	tb, ref := snapshotFixture(t, 16)
	s := tb.BuildSnapshot()
	fresh := &Path{Prefix: pfx("198.51.100.0/24"), Peer: "c", Attrs: attrsVia(65009), EBGP: true, Seq: NextSeq()}
	tb.Add(fresh)
	if v, sv := tb.Stats().Version, s.Version(); v == sv {
		t.Fatalf("mutation did not advance the version past the snapshot (%d)", v)
	}
	before := tb.Stats()
	if got := tb.Lookup(ip("198.51.100.1")); got != fresh {
		t.Fatalf("Lookup after mutation = %v, want the freshly added path", got)
	}
	st := tb.Stats()
	if st.SnapshotLookups != before.SnapshotLookups {
		t.Error("stale snapshot served a lookup")
	}
	if st.LockedLookups != before.LockedLookups+1 {
		t.Errorf("locked fallback not taken: %d -> %d", before.LockedLookups, st.LockedLookups)
	}
	// The stale snapshot object itself stays immutable: it still answers
	// from the state it captured (here, the covering short prefix — not
	// the /24 added after the build).
	if got, want := s.Lookup(ip("198.51.100.1")), bruteLookup(ref, ip("198.51.100.1")); got != want {
		t.Errorf("immutable snapshot changed: got %v, want %v", got, want)
	}
}

// TestSnapshotAtomicSwap pins consistency rule 1: concurrent readers
// see complete snapshots only — every route in one snapshot belongs to
// the same write generation, versions are monotonic, and no read ever
// observes a partially flattened table. The table uses one shard so
// each AddBatch is a single atomic generation switch.
func TestSnapshotAtomicSwap(t *testing.T) {
	const prefixes, generations = 64, 30
	tb := NewTableShards("swap", 1)
	pfxs := make([]netip.Prefix, prefixes)
	for i := range pfxs {
		pfxs[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 24)
	}
	install := func(gen int) {
		batch := make([]*Path, prefixes)
		for i, p := range pfxs {
			batch[i] = &Path{Prefix: p, Peer: "a", Attrs: attrsVia(65001), Seq: uint64(gen)}
		}
		tb.AddBatch(batch)
	}
	install(1)
	tb.BuildSnapshot()

	var stop atomic.Bool
	var torn atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for !stop.Load() {
				s := tb.ReadSnapshot()
				if s.Version() < lastVersion {
					t.Error("snapshot version went backwards")
					return
				}
				lastVersion = s.Version()
				if s.Routes() != prefixes {
					torn.Add(1)
					continue
				}
				gen := uint64(0)
				s.Walk(func(_ netip.Prefix, best *Path) bool {
					if gen == 0 {
						gen = best.Seq
					} else if best.Seq != gen {
						torn.Add(1)
						return false
					}
					return true
				})
			}
		}()
	}
	for gen := 2; gen <= generations; gen++ {
		install(gen)
		tb.BuildSnapshot()
	}
	stop.Store(true)
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("readers observed %d torn snapshots", n)
	}
}

// TestAutoSnapshot exercises the single-flight background maintenance:
// after churn beyond the configured interval, lookups converge back to
// being served from a fresh snapshot without any explicit BuildSnapshot.
func TestAutoSnapshot(t *testing.T) {
	tb := NewTableShards("auto", 16)
	tb.EnableAutoSnapshot(8)
	if tb.ReadSnapshot() == nil {
		t.Fatal("EnableAutoSnapshot did not build the initial snapshot")
	}
	for i := 0; i < 100; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(i), 2, 0, 0}), 24)
		tb.Add(&Path{Prefix: p, Peer: "a", Attrs: attrsVia(65001), Seq: uint64(i + 1)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		before := tb.Stats().SnapshotLookups
		tb.Lookup(ip("7.2.0.9")) // misses schedule a rebuild; hits prove freshness
		if tb.Stats().SnapshotLookups > before {
			break
		}
		if time.Now().After(deadline) {
			st := tb.Stats()
			t.Fatalf("auto snapshot never caught up: version %d, snapshot %d", st.Version, st.SnapshotVersion)
		}
		time.Sleep(time.Millisecond)
	}
	if got := tb.Lookup(ip("7.2.0.9")); got == nil || got.Prefix != pfx("7.2.0.0/24") {
		t.Fatalf("post-convergence lookup = %v", got)
	}
}

// TestAutoSnapshotDisable checks every <= 0 turns maintenance off.
func TestAutoSnapshotDisable(t *testing.T) {
	tb := NewTableShards("auto-off", 16)
	tb.EnableAutoSnapshot(8)
	tb.EnableAutoSnapshot(0)
	v := tb.Stats().SnapshotVersion
	for i := 0; i < 64; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(i), 3, 0, 0}), 24)
		tb.Add(&Path{Prefix: p, Peer: "a", Attrs: attrsVia(65001), Seq: uint64(i + 1)})
		tb.Lookup(p.Addr())
	}
	time.Sleep(10 * time.Millisecond)
	if got := tb.Stats().SnapshotVersion; got != v {
		t.Fatalf("disabled auto snapshot still rebuilt: version %d -> %d", v, got)
	}
}

// ReadSnapshot returns the table's current snapshot, or nil if none has
// been built. The snapshot may lag the live table; check Version
// against Stats().Version when freshness matters.
func (t *Table) ReadSnapshot() *Snapshot { return t.snap.Load() }
