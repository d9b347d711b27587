//go:build !race

package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bgp"
)

// announceCost measures what one experiment announcement and its
// withdrawal cost a router with four neighbors and no sessions when live
// other announcements are in place: bytes and allocations per pair,
// taken synchronously on the test's goroutine. Snapshots are off: a FIB
// rebuild is the data plane's cost, amortized over table versions, not
// the announce path's.
func announceCost(t *testing.T, live int) (bytes, allocs float64) {
	t.Helper()
	r := NewRouter(Config{Name: fmt.Sprintf("announce-cost-%d", live), ASN: platformASN,
		RouterID: ip("198.51.100.1"), SnapshotInterval: -1})
	for i := 1; i <= 4; i++ {
		sessionlessNeighbor(r, fmt.Sprintf("N%d", i), uint32(i))
	}

	e := &expConn{name: "X1"}
	attrs := &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true,
		ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{expASN}}},
		NextHop:     ip("100.65.0.1"),
		Communities: []bgp.Community{bgp.NewCommunity(3356, 70), NoExportTo(platformASN, 3)},
	}
	for i := 0; i < live; i++ {
		r.handleExperimentUpdate(e, &bgp.Update{Attrs: attrs, NLRI: []bgp.NLRI{{Prefix: tablePrefix(i)}}})
	}
	churned := tablePrefix(live)
	announce := &bgp.Update{Attrs: attrs, NLRI: []bgp.NLRI{{Prefix: churned}}}
	withdraw := &bgp.Update{Withdrawn: []bgp.NLRI{{Prefix: churned}}}
	round := func() {
		r.handleExperimentUpdate(e, announce)
		r.handleExperimentUpdate(e, withdraw)
	}
	round()

	const rounds = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / rounds, float64(after.Mallocs-before.Mallocs) / rounds
}

// TestAnnounceCostFlatInLiveAnnouncements is the guard on the announce
// path: an announcement's export policy travels with its route, so what
// announcing and withdrawing one prefix costs must not grow with the
// number of other announcements in place.
func TestAnnounceCostFlatInLiveAnnouncements(t *testing.T) {
	fewBytes, fewAllocs := announceCost(t, 10)
	manyBytes, manyAllocs := announceCost(t, 1000)
	t.Logf("per announce+withdraw: %.0f B, %.1f allocations at 10 live announcements; %.0f B, %.1f allocations at 1000",
		fewBytes, fewAllocs, manyBytes, manyAllocs)
	if manyBytes > 1.1*fewBytes || manyAllocs > 1.1*fewAllocs {
		t.Errorf("at 1000 live announcements an announce+withdraw costs %.0f B and %.1f allocations, at 10 %.0f B and %.1f; want within 1.1x",
			manyBytes, manyAllocs, fewBytes, fewAllocs)
	}
}
