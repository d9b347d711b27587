package main

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/ctlplane"
)

// ctlrecoverFig measures the crash-safety tax and the recovery cost of
// the durable desired-state store, swept over the number of stored
// experiments: per commit the latency of the fsynced WAL append, the
// bytes it appends and the allocations it makes — which must not depend
// on how much is stored — then the compaction snapshot's size and the
// wall-clock time a restarted control plane spends replaying
// snapshot+log back into memory.
func ctlrecoverFig() error {
	header("Control-plane crash recovery — WAL commit cost and replay time",
		"crash-only operation: a durable commit costs one fsync and a delta-sized record whatever the store holds; restart recovery replays snapshot+log and stays sub-second at experiment-fleet scale")

	counts := []int{250, 1000, 4000}
	fmt.Printf("%-12s %10s %10s %10s %10s %10s %10s %14s\n",
		"experiments", "commit", "B/commit", "allocs", "recover", "snapshot", "log+snap", "objs/s replay")

	var samples []benchSample
	var lastRecover time.Duration
	var bytesPer, allocsPer []float64
	for _, n := range counts {
		dir, err := os.MkdirTemp("", "vbgp-ctlrecover-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)

		s, _, _, err := ctlplane.RecoverStore(ctlplane.StoreConfig{}, dir)
		if err != nil {
			return err
		}
		walPath, snapPath := filepath.Join(dir, "ctlplane.wal"), filepath.Join(dir, "ctlplane.snap")
		// Per-commit medians, so the figure reads the commit itself and
		// not the O(objects) snapshot every 1024th record pays for.
		var grown, allocs []float64
		var committing time.Duration
		var mem runtime.MemStats
		for i := 0; i < n; i++ {
			prefix := fmt.Sprintf("10.%d.%d.0/24", (i/256)%256, i%256)
			spec := ctlplane.Spec{
				Name:     fmt.Sprintf("exp-%05d", i),
				Owner:    "bench",
				ASN:      61574,
				Prefixes: []string{prefix},
				Announcements: []ctlplane.Announcement{
					{Prefix: prefix, PoPs: []string{"amsix", "seattle"}},
				},
			}
			before, _ := os.Stat(walPath)
			runtime.ReadMemStats(&mem)
			mallocs := mem.Mallocs
			start := time.Now()
			obj, _, err := s.Create(spec)
			committing += time.Since(start)
			if err != nil {
				return fmt.Errorf("create %s: %w", spec.Name, err)
			}
			runtime.ReadMemStats(&mem)
			allocs = append(allocs, float64(mem.Mallocs-mallocs))
			if after, _ := os.Stat(walPath); before != nil && after != nil && after.Size() > before.Size() { // not across a compaction
				grown = append(grown, float64(after.Size()-before.Size()))
			}
			// Each experiment also logs one actuation fingerprint: the
			// record recovery uses for budget-free adoption.
			s.LogAct("announce", ctlplane.AnnKey{
				Experiment: obj.Spec.Name, PoP: "amsix",
				Prefix: netip.MustParsePrefix(prefix),
			}, "fp")
		}
		commitPerOp := committing / time.Duration(n)
		if err := s.Close(); err != nil {
			return err
		}

		var onDisk, snapshot int64
		if st, err := os.Stat(snapPath); err == nil {
			snapshot = st.Size()
		}
		if st, err := os.Stat(walPath); err == nil {
			onDisk = snapshot + st.Size()
		}

		start := time.Now()
		s2, _, rec, err := ctlplane.RecoverStore(ctlplane.StoreConfig{}, dir)
		if err != nil {
			return err
		}
		replay := time.Since(start)
		lastRecover = replay
		if rec == nil || len(rec.Objects) != n || len(rec.Acts) != n {
			return fmt.Errorf("recovered %d objects / %d acts, want %d each",
				len(rec.Objects), len(rec.Acts), n)
		}
		s2.Close()

		sort.Float64s(grown)
		sort.Float64s(allocs)
		bytesPerCommit, allocsPerCommit := grown[len(grown)/2], allocs[len(allocs)/2]
		bytesPer, allocsPer = append(bytesPer, bytesPerCommit), append(allocsPer, allocsPerCommit)
		fmt.Printf("%-12d %10s %10.0f %10.0f %10s %8.1fKB %8.1fKB %14.0f\n",
			n, commitPerOp.Round(time.Microsecond), bytesPerCommit, allocsPerCommit,
			replay.Round(time.Microsecond), float64(snapshot)/1e3, float64(onDisk)/1e3, float64(n)/replay.Seconds())
		samples = append(samples,
			benchSample{Name: fmt.Sprintf("commit-%d", n), NsPerOp: float64(commitPerOp.Nanoseconds())},
			benchSample{Name: fmt.Sprintf("commit-bytes-%d", n), Value: bytesPerCommit, Unit: "B"},
			benchSample{Name: fmt.Sprintf("commit-allocs-%d", n), Value: allocsPerCommit, Unit: "allocs"},
			benchSample{Name: fmt.Sprintf("recover-%d", n), NsPerOp: float64(replay.Nanoseconds())},
			benchSample{Name: fmt.Sprintf("snapshot-%d", n), Value: float64(snapshot) / 1e3, Unit: "KB"},
			benchSample{Name: fmt.Sprintf("disk-%d", n), Value: float64(onDisk) / 1e3, Unit: "KB"},
		)
	}
	last := len(counts) - 1
	fast := lastRecover < time.Second
	flat := bytesPer[last] <= 1.1*bytesPer[0] && allocsPer[last] <= 1.1*allocsPer[0]
	fmt.Printf("shape check (restart replay of %d experiments under 1s): %v\n", counts[last], fast)
	fmt.Printf("shape check (WAL bytes and allocations per commit at %d experiments within 1.1x of those at %d): %v\n",
		counts[last], counts[0], flat)
	record("ctlrecover", map[string]any{"counts": counts}, samples...)
	if !fast || !flat {
		return fmt.Errorf("ctlrecover: a shape check is false")
	}
	return nil
}
