package rib

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/bgp"
)

func attrsVia(asns ...uint32) *bgp.PathAttrs {
	return &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true,
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
		NextHop: ip("192.0.2.1"),
	}
}

func path(prefix string, peer string, id bgp.PathID, asns ...uint32) *Path {
	return &Path{
		Prefix: pfx(prefix), ID: id, Peer: peer,
		Attrs: attrsVia(asns...),
		EBGP:  true, Seq: NextSeq(),
		From: &PeerInfo{Addr: ip("10.0.0.1"), RouterID: ip("10.0.0.1")},
	}
}

func TestTableAddWithdraw(t *testing.T) {
	tb := NewTable("test")
	p1 := path("10.0.0.0/24", "n1", 0, 65001)
	p2 := path("10.0.0.0/24", "n2", 0, 65002, 65003)
	tb.Add(p1)
	tb.Add(p2)
	if tb.Prefixes() != 1 || tb.PathCount() != 2 {
		t.Fatalf("prefixes=%d paths=%d", tb.Prefixes(), tb.PathCount())
	}
	if best := tb.Best(pfx("10.0.0.0/24")); best != p1 {
		t.Errorf("best = %v, want shorter path via n1", best)
	}
	if got := tb.Withdraw(pfx("10.0.0.0/24"), "n1", 0); got != p1 {
		t.Errorf("withdraw returned %v", got)
	}
	if best := tb.Best(pfx("10.0.0.0/24")); best != p2 {
		t.Errorf("best after withdraw = %v", best)
	}
	tb.Withdraw(pfx("10.0.0.0/24"), "n2", 0)
	if tb.Prefixes() != 0 || tb.PathCount() != 0 {
		t.Errorf("table not empty: prefixes=%d paths=%d", tb.Prefixes(), tb.PathCount())
	}
}

func TestTableImplicitWithdraw(t *testing.T) {
	tb := NewTable("test")
	tb.Add(path("10.0.0.0/24", "n1", 0, 65001))
	replaced := tb.Add(path("10.0.0.0/24", "n1", 0, 65001, 65002))
	if replaced == nil {
		t.Fatal("re-announce did not replace")
	}
	if tb.PathCount() != 1 {
		t.Errorf("paths = %d, want 1", tb.PathCount())
	}
	if got := tb.Best(pfx("10.0.0.0/24")); got.Attrs.ASPathLen() != 2 {
		t.Errorf("stale path survived: %v", got)
	}
}

func TestTableAddPathIDsDistinct(t *testing.T) {
	tb := NewTable("test")
	tb.Add(path("10.0.0.0/24", "vbgp", 1, 65001))
	tb.Add(path("10.0.0.0/24", "vbgp", 2, 65002))
	if tb.PathCount() != 2 {
		t.Errorf("paths with distinct IDs = %d, want 2", tb.PathCount())
	}
	tb.Withdraw(pfx("10.0.0.0/24"), "vbgp", 1)
	if tb.PathCount() != 1 {
		t.Errorf("paths after ID-1 withdraw = %d", tb.PathCount())
	}
	if best := tb.Best(pfx("10.0.0.0/24")); best.ID != 2 {
		t.Errorf("remaining path ID = %d", best.ID)
	}
}

func TestTableWithdrawPeer(t *testing.T) {
	tb := NewTable("test")
	for i := 0; i < 10; i++ {
		tb.Add(path(fmt.Sprintf("10.%d.0.0/16", i), "down", 0, 65001))
		tb.Add(path(fmt.Sprintf("10.%d.0.0/16", i), "up", 0, 65002))
	}
	tb.Add(path("172.16.0.0/12", "down", 0, 65001))
	removed := tb.WithdrawPeer("down")
	if len(removed) != 11 {
		t.Fatalf("removed %d paths, want 11", len(removed))
	}
	if tb.Prefixes() != 10 || tb.PathCount() != 10 {
		t.Errorf("prefixes=%d paths=%d after peer withdraw", tb.Prefixes(), tb.PathCount())
	}
	if tb.Best(pfx("172.16.0.0/12")) != nil {
		t.Error("peer-only prefix survived")
	}
}

func TestTableLookupLPM(t *testing.T) {
	tb := NewTable("test")
	tb.Add(path("0.0.0.0/0", "transit", 0, 65001))
	tb.Add(path("192.168.0.0/16", "peer", 0, 65002))
	if got := tb.Lookup(ip("192.168.1.1")); got.Peer != "peer" {
		t.Errorf("LPM chose %v", got)
	}
	if got := tb.Lookup(ip("8.8.8.8")); got.Peer != "transit" {
		t.Errorf("default chose %v", got)
	}
}

func TestTableConcurrentAccess(t *testing.T) {
	tb := NewTable("test")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := path(fmt.Sprintf("10.%d.%d.0/24", g, i%250), fmt.Sprintf("n%d", g), 0, 65001)
				tb.Add(p)
				tb.Lookup(ip("10.1.1.1"))
				if i%3 == 0 {
					tb.Withdraw(p.Prefix, p.Peer, 0)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDecisionLocalPref(t *testing.T) {
	a := path("10.0.0.0/24", "a", 0, 65001, 65002, 65003)
	a.Attrs.LocalPref, a.Attrs.HasLocalPref = 200, true
	b := path("10.0.0.0/24", "b", 0, 65001)
	if Best([]*Path{a, b}) != a {
		t.Error("higher local-pref should beat shorter path")
	}
}

func TestDecisionASPathLen(t *testing.T) {
	a := path("10.0.0.0/24", "a", 0, 65001, 65002)
	b := path("10.0.0.0/24", "b", 0, 65001)
	if Best([]*Path{a, b}) != b {
		t.Error("shorter AS path should win")
	}
}

func TestDecisionOrigin(t *testing.T) {
	a := path("10.0.0.0/24", "a", 0, 65001)
	a.Attrs.Origin = bgp.OriginIncomplete
	b := path("10.0.0.0/24", "b", 0, 65002)
	b.Attrs.Origin = bgp.OriginIGP
	if Best([]*Path{a, b}) != b {
		t.Error("IGP origin should beat incomplete")
	}
}

func TestDecisionMEDSameNeighborOnly(t *testing.T) {
	// Same neighboring AS: MED compared.
	a := path("10.0.0.0/24", "a", 0, 65001)
	a.Attrs.MED, a.Attrs.HasMED = 100, true
	b := path("10.0.0.0/24", "b", 0, 65001)
	b.Attrs.MED, b.Attrs.HasMED = 10, true
	if Best([]*Path{a, b}) != b {
		t.Error("lower MED from same AS should win")
	}
	// Different neighboring AS: MED ignored, falls through to later
	// tiebreaks (here: seq/age, a is older).
	c := path("10.0.0.0/24", "c", 0, 65002)
	c.Attrs.MED, c.Attrs.HasMED = 1000, true
	d := path("10.0.0.0/24", "d", 0, 65003)
	d.Attrs.MED, d.Attrs.HasMED = 1, true
	if Best([]*Path{c, d}) != c {
		t.Error("MED must not compare across neighbor ASes")
	}
}

func TestDecisionEBGPOverIBGP(t *testing.T) {
	a := path("10.0.0.0/24", "a", 0, 65001)
	a.EBGP = false
	a.Seq = 1
	b := path("10.0.0.0/24", "b", 0, 65002)
	b.EBGP = true
	b.Seq = 2
	if Best([]*Path{a, b}) != b {
		t.Error("eBGP should beat iBGP")
	}
}

func TestDecisionIGPMetricAndAge(t *testing.T) {
	a := path("10.0.0.0/24", "a", 0, 65001)
	a.IGPMetric = 10
	b := path("10.0.0.0/24", "b", 0, 65002)
	b.IGPMetric = 5
	if Best([]*Path{a, b}) != b {
		t.Error("lower IGP metric should win")
	}
	c := path("10.0.0.0/24", "c", 0, 65001)
	d := path("10.0.0.0/24", "d", 0, 65002)
	if c.Seq >= d.Seq {
		t.Fatal("seq not monotonic")
	}
	if Best([]*Path{d, c}) != c {
		t.Error("older route should win")
	}
}

func TestDecisionRouterIDTiebreak(t *testing.T) {
	a := path("10.0.0.0/24", "a", 0, 65001)
	b := path("10.0.0.0/24", "b", 0, 65002)
	b.Seq = a.Seq // force equal age
	a.From = &PeerInfo{Addr: ip("10.0.0.1"), RouterID: ip("10.0.0.9")}
	b.From = &PeerInfo{Addr: ip("10.0.0.1"), RouterID: ip("10.0.0.1")}
	if Best([]*Path{a, b}) != b {
		t.Error("lower router ID should win")
	}
}

// TestDecisionFromTiebreak checks the last two steps of the decision
// process through the shared session context: a path without one
// compares as the zero router ID and address, and two sessions that
// differ only in router ID, or only in address, are told apart by it.
func TestDecisionFromTiebreak(t *testing.T) {
	tied := func(from *PeerInfo) *Path {
		p := path("10.0.0.0/24", "p", 0, 65001)
		p.Seq, p.From = 1, from
		return p
	}
	low, high := ip("10.0.0.1"), ip("10.0.0.2")
	for _, tc := range []struct {
		name      string
		win, lose *PeerInfo
	}{
		{"nil beats a router ID", nil, &PeerInfo{Addr: low, RouterID: low}},
		{"nil beats an address", nil, &PeerInfo{Addr: low}},
		{"router ID only", &PeerInfo{Addr: high, RouterID: low}, &PeerInfo{Addr: high, RouterID: high}},
		{"router ID before address", &PeerInfo{Addr: high, RouterID: low}, &PeerInfo{Addr: low, RouterID: high}},
		{"address only", &PeerInfo{Addr: low, RouterID: high}, &PeerInfo{Addr: high, RouterID: high}},
	} {
		win, lose := tied(tc.win), tied(tc.lose)
		if Best([]*Path{win, lose}) != win || Best([]*Path{lose, win}) != win {
			t.Errorf("%s: the wrong path won", tc.name)
		}
	}
	// Neither of two paths without a session context beats the other:
	// the first one offered stays best.
	a, b := tied(nil), tied(nil)
	if better(a, b) || better(b, a) {
		t.Error("two paths without a session context should tie")
	}
}

func TestDecisionEmptyAndNil(t *testing.T) {
	if Best(nil) != nil {
		t.Error("Best(nil) should be nil")
	}
	if Best([]*Path{nil}) != nil {
		t.Error("Best([nil]) should be nil")
	}
}

func TestPathAccessors(t *testing.T) {
	p := path("10.0.0.0/24", "x", 0, 65001)
	if p.LocalPref() != 100 {
		t.Errorf("default local-pref = %d", p.LocalPref())
	}
	if p.MED() != 0 {
		t.Errorf("default MED = %d", p.MED())
	}
	if p.NextHop() != ip("192.0.2.1") {
		t.Errorf("next hop = %s", p.NextHop())
	}
	v6 := &Path{Prefix: pfx("2001:db8::/32"), Attrs: &bgp.PathAttrs{MPNextHop: ip("2001:db8::1")}}
	if v6.NextHop() != ip("2001:db8::1") {
		t.Errorf("v6 next hop = %s", v6.NextHop())
	}
}

func TestFIB(t *testing.T) {
	f := NewFIB("n1")
	f.Set(pfx("0.0.0.0/0"), FIBEntry{NextHop: ip("1.1.1.1"), Out: "n1"})
	f.Set(pfx("192.168.0.0/16"), FIBEntry{NextHop: ip("2.2.2.2"), Out: "n1"})
	e, ok := f.Lookup(ip("192.168.3.4"))
	if !ok || e.NextHop != ip("2.2.2.2") {
		t.Errorf("FIB LPM = %+v,%v", e, ok)
	}
	e, ok = f.Lookup(ip("9.9.9.9"))
	if !ok || e.NextHop != ip("1.1.1.1") {
		t.Errorf("FIB default = %+v,%v", e, ok)
	}
	if f.Len() != 2 {
		t.Errorf("FIB len = %d", f.Len())
	}
	if !f.Delete(pfx("192.168.0.0/16")) {
		t.Error("FIB delete failed")
	}
	e, _ = f.Lookup(ip("192.168.3.4"))
	if e.NextHop != ip("1.1.1.1") {
		t.Error("FIB delete did not take effect")
	}
	n := 0
	f.Walk(func(netip.Prefix, FIBEntry) bool { n++; return true })
	if n != 1 {
		t.Errorf("FIB walk visited %d", n)
	}
}

func TestBestInvariantUnderPermutation(t *testing.T) {
	// The decision process must be a pure function of the path set, not
	// of arrival order (given distinct tiebreak keys).
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		paths := make([]*Path, n)
		for i := range paths {
			p := path("10.0.0.0/24", fmt.Sprintf("n%d", i), 0, 65001, uint32(65002+rng.Intn(5)))
			p.Attrs.LocalPref, p.Attrs.HasLocalPref = uint32(100+rng.Intn(3)*10), true
			p.Attrs.MED, p.Attrs.HasMED = uint32(rng.Intn(50)), true
			p.EBGP = rng.Intn(2) == 0
			p.IGPMetric = uint32(rng.Intn(4))
			id := ip(fmt.Sprintf("10.0.0.%d", i+1))
			p.From = &PeerInfo{Addr: id, RouterID: id}
			paths[i] = p
		}
		want := Best(paths)
		for perm := 0; perm < 10; perm++ {
			shuffled := append([]*Path(nil), paths...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := Best(shuffled); got != want {
				t.Fatalf("trial %d: best depends on order: %v vs %v", trial, got, want)
			}
		}
	}
}

// Prefixes returns the number of distinct prefixes in the table.
func (t *Table) Prefixes() int {
	t.rlockAll()
	defer t.runlockAll()
	n := t.spill.trie.Len()
	for _, sh := range t.shards {
		n += sh.trie.Len()
	}
	return n
}

// Delete removes the entry for prefix.
func (f *FIB) Delete(prefix netip.Prefix) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.trie.Remove(prefix)
}

// Walk visits every entry.
func (f *FIB) Walk(fn func(prefix netip.Prefix, e FIBEntry) bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	f.trie.Walk(fn)
}
