//go:build !race

package ctlplane

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestCommitCostFlatInStoredSpecs: what a create allocates and what it
// appends to the WAL do not depend on how many specs the store holds.
// testing.AllocsPerRun counts the whole process's allocations, so the
// race detector's would land in it: the guard is built !race and pinned
// in CI's plain test job.
func TestCommitCostFlatInStoredSpecs(t *testing.T) {
	measure := func(stored int) (allocs, walBytes float64) {
		dir := t.TempDir()
		s, w, _ := recoverTestStore(t, dir)
		defer s.Close()
		w.CompactEvery = 1 << 20 // a compaction would truncate the log mid-measurement
		const runs = 32
		specs := make([]Spec, stored+runs+1) // AllocsPerRun warms up with one extra call
		for i := range specs {
			specs[i] = testSpecAt(fmt.Sprintf("exp-%05d", i), fmt.Sprintf("10.%d.%d.0/24", i>>8, i&255))
		}
		for _, spec := range specs[:stored] {
			if _, _, err := s.Create(spec); err != nil {
				t.Fatal(err)
			}
		}
		walPath := filepath.Join(dir, walFileName)
		before, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		next := stored
		allocs = testing.AllocsPerRun(runs, func() {
			if _, _, err := s.Create(specs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		after, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return allocs, float64(after.Size()-before.Size()) / float64(next-stored)
	}
	smallAllocs, smallBytes := measure(8)
	bigAllocs, bigBytes := measure(1000)
	t.Logf("create at 8 stored specs: %.0f allocs, %.0f WAL bytes; at 1000: %.0f allocs, %.0f WAL bytes",
		smallAllocs, smallBytes, bigAllocs, bigBytes)
	if bigAllocs > 1.1*smallAllocs || bigBytes > 1.1*smallBytes {
		t.Fatalf("commit cost grows with stored specs: %.0f -> %.0f allocs, %.0f -> %.0f WAL bytes",
			smallAllocs, bigAllocs, smallBytes, bigBytes)
	}
	if smallAllocs > 30 || smallBytes > 400 {
		t.Fatalf("a create costs %.0f allocs and %.0f WAL bytes, want at most 30 and 400", smallAllocs, smallBytes)
	}
}
