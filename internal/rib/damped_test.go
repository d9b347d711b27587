package rib

import (
	"net/netip"
	"testing"
)

func TestMarkDampedCopyOnWrite(t *testing.T) {
	tb := NewTable("test")
	p1 := path("10.0.0.0/24", "n1", 0, 65001)
	p2 := path("10.0.0.0/24", "n2", 0, 65002)
	tb.Add(p1)
	tb.Add(p2)

	before := tb.Paths(pfx("10.0.0.0/24"))
	if n := tb.MarkDamped(pfx("10.0.0.0/24"), "n1", true); n != 1 {
		t.Fatalf("MarkDamped marked %d, want 1", n)
	}
	// Copy-on-write: the shared originals are untouched, readers holding
	// the old slice still see undamped paths.
	if p1.Damped {
		t.Fatal("MarkDamped mutated the shared *Path")
	}
	for _, e := range before {
		if e.Damped {
			t.Fatal("old slice sees the damped mark")
		}
	}
	// The table's view is marked, other peers' paths untouched.
	for _, e := range tb.Paths(pfx("10.0.0.0/24")) {
		if e.Peer == "n1" && !e.Damped {
			t.Fatal("n1's path not damped in table view")
		}
		if e.Peer == "n2" && e.Damped {
			t.Fatal("n2's path damped")
		}
	}
	if tb.DampedCount() != 1 {
		t.Fatalf("DampedCount = %d, want 1", tb.DampedCount())
	}
	// The route stays in the adj-RIB-in while damped.
	if tb.PathCount() != 2 {
		t.Fatalf("PathCount = %d, want 2 (damped path retained)", tb.PathCount())
	}

	// Idempotent: marking again changes nothing.
	if n := tb.MarkDamped(pfx("10.0.0.0/24"), "n1", true); n != 0 {
		t.Fatalf("re-mark changed %d paths, want 0", n)
	}
	// Clearing restores exportability.
	if n := tb.MarkDamped(pfx("10.0.0.0/24"), "n1", false); n != 1 {
		t.Fatalf("unmark changed %d paths, want 1", n)
	}
	if tb.DampedCount() != 0 {
		t.Fatalf("DampedCount after clear = %d", tb.DampedCount())
	}
	// Unknown prefix is a no-op.
	if n := tb.MarkDamped(pfx("192.0.2.0/24"), "n1", true); n != 0 {
		t.Fatalf("mark of unknown prefix changed %d", n)
	}
}

// DampedCount returns how many paths are currently marked damped
// (all peers, both families).
func (t *Table) DampedCount() int {
	n := 0
	t.rlockAll()
	defer t.runlockAll()
	t.walkLocked(netip.Prefix{}, func(_ netip.Prefix, paths []*Path) bool {
		for _, e := range paths {
			if e.Damped {
				n++
			}
		}
		return true
	})
	return n
}
