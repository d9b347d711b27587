//go:build !race

package peering

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestIdleReconcilePassAllocatesNothing: once every spec has converged
// and nothing on the platform moves, a resync tick costs nothing — no
// pass (ctlplane_reconcile_runs_total stays flat) and no allocation
// anywhere in the process — however many specs are stored. The race
// detector allocates on its own, so the guard is built !race and pinned
// in CI's plain test job. The window closes long before the sessions'
// first keepalive, 30 s after they establish.
func TestIdleReconcilePassAllocatesNothing(t *testing.T) {
	const specs = 200
	quietControlPlane(t, nil, specs)
	// A goroutine blocked on a channel holds a runtime wait record taken
	// from its P's cache, and the cache refills by allocating. Fill every
	// P's cache first — park a few hundred goroutines on a channel and
	// release them — so the window counts the reconciler, not that.
	release := make(chan struct{})
	var parked sync.WaitGroup
	for i := 0; i < 256; i++ {
		parked.Add(1)
		go func() { defer parked.Done(); <-release }()
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	parked.Wait()

	before := reconcileRuns()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	time.Sleep(time.Second) // a hundred resync ticks
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Errorf("%d allocations over a second of idle reconcile ticks at %d specs, want 0", n, specs)
	}
	if after := reconcileRuns(); after != before {
		t.Errorf("%v reconcile passes over a second with nothing changed, want 0", after-before)
	}
}
