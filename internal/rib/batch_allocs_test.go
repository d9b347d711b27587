//go:build !race

package rib

import (
	"fmt"
	"net/netip"
	"testing"
)

// TestOneShardBatchAllocatesNoBuckets is the batch path's allocation
// guard: a batch whose prefixes all fall in one shard — a one-route
// UPDATE, or adjacent /24s — is applied without grouping, so AddBatch
// costs only each prefix's new path list and WithdrawBatch only its
// result. (The race detector instruments allocation; the guard is
// pinned in CI's plain test job.)
func TestOneShardBatchAllocatesNoBuckets(t *testing.T) {
	tb := NewTable("batch")
	var one []*Path
	var oneReqs []WithdrawRequest
	for i := 0; i < 8; i++ {
		p := path(fmt.Sprintf("10.0.%d.0/24", i), "a", 0, 65001)
		one = append(one, p)
		oneReqs = append(oneReqs, WithdrawRequest{Prefix: p.Prefix, Peer: "b"}) // never present
	}
	if _, ok := tb.oneShard(len(one), func(k int) netip.Prefix { return one[k].Prefix }); !ok {
		t.Fatal("the adjacent /24s span several shards")
	}
	tb.AddBatch(one)

	// Re-adding a path replaces it: one new path list per prefix.
	if got := testing.AllocsPerRun(100, func() { tb.AddBatch(one) }); got != float64(len(one)) {
		t.Errorf("a one-shard AddBatch of %d paths allocates %.1f times, want %d", len(one), got, len(one))
	}
	if got := testing.AllocsPerRun(100, func() { tb.WithdrawBatch(oneReqs) }); got != 1 {
		t.Errorf("a one-shard WithdrawBatch allocates %.1f times, want 1 (its result)", got)
	}
}
