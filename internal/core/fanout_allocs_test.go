//go:build !race

package core

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/pipe"
)

// sinkRelay sits between the router and an experiment's real session:
// it passes both directions through for the handshake, then swallows
// what the router sends — counting the bytes, allocating nothing — so
// the experiment's decoder is out of the measurement and what is left
// is the router's side of the fan-out.
type sinkRelay struct {
	swallow  atomic.Bool
	received atomic.Int64
}

func (s *sinkRelay) run(router, experiment net.Conn) {
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, err := experiment.Read(buf)
			if err != nil {
				return
			}
			if _, err := router.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, err := router.Read(buf)
			if err != nil {
				return
			}
			s.received.Add(int64(n))
			if !s.swallow.Load() {
				if _, err := experiment.Write(buf[:n]); err != nil {
					return
				}
			}
		}
	}()
}

// exportAllocsPerRoute measures, on a router with E experiments, the
// allocations one churned neighbor route costs the whole process minus
// the experiments' decoders: the neighbor's send, the router's decode
// and ingest, the export build, the encode, E enqueues and E writes.
func exportAllocsPerRoute(t *testing.T, experiments int) float64 {
	t.Helper()
	const routes = 512
	f := newFanoutRouter(t, 1)
	f.load(t, routes)
	relays := make([]*sinkRelay, experiments)
	var firstNear *pipe.Conn // relay 0's end of the router's session
	for e := range relays {
		routerEnd, relayNear := pipe.New()
		if e == 0 {
			firstNear = relayNear
		}
		relayFar, expEnd := pipe.New()
		relays[e] = &sinkRelay{}
		relays[e].run(relayNear, relayFar)
		if _, err := f.r.ConnectExperiment(fmt.Sprintf("X%d", e), expASN+uint32(e), routerEnd); err != nil {
			t.Fatal(err)
		}
		p := newViewPeer(expEnd, expASN+uint32(e), fmt.Sprintf("100.65.0.%d", e+1), false)
		t.Cleanup(func() { p.sess.Close() })
		p.waitEndOfRIB(t)
		relays[e].swallow.Store(true)
	}

	// One round: every route re-announced with a new version, as
	// pre-built UPDATEs; done when every relay has the round's bytes.
	updates := make([]*bgp.Update, routes)
	for i := range updates {
		updates[i] = &bgp.Update{
			Attrs: &bgp.PathAttrs{Origin: bgp.OriginIGP, HasOrigin: true, NextHop: ip("192.0.2.1"), HasMED: true,
				ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{n1ASN, 3356, uint32(1000 + i)}}}},
			NLRI: []bgp.NLRI{{Prefix: tablePrefix(i)}},
		}
	}
	var perRound int64 // bytes one round puts on each experiment session
	round := func() {
		want := make([]int64, len(relays))
		for e, r := range relays {
			want[e] = r.received.Load() + perRound
		}
		for _, u := range updates {
			u.Attrs.MED++
			if err := f.nbrs[0].Send(u); err != nil {
				t.Fatal(err)
			}
		}
		for e, r := range relays {
			for deadline := time.Now().Add(10 * time.Second); r.received.Load() < want[e]; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("experiment %d received %d of %d bytes of the round", e, r.received.Load()-want[e]+perRound, perRound)
				}
			}
		}
	}
	// Calibrate the round's size (and warm every pool and buffer): send
	// one and wait until the router is at rest and relay 0 has read all
	// it wrote.
	before := relays[0].received.Load()
	round()
	waitFor(t, 5*time.Second, "the calibration round to drain", func() bool {
		return f.quiet() && firstNear.Buffered() == 0
	})
	// A round is 512 equal UPDATEs.
	perRound = relays[0].received.Load() - before
	if perRound%routes != 0 {
		t.Fatalf("calibration: %d bytes do not divide into %d equal UPDATEs", perRound, routes)
	}
	round()
	return testing.AllocsPerRun(5, round) / routes
}

// TestExportAllocsFlatInExperiments is the encode-once guard: what a
// route costs the router must not grow with the number of experiments
// it is exported to — at most a quarter of an allocation per extra
// experiment (queue and buffer growth that amortizes away), where
// per-session encoding paid eleven. What it costs at all is bounded
// too: the decoded attribute set, the stored path and the prefix's new
// path list are the three allocations a churned route needs, and the
// bound leaves one for amortized growth.
func TestExportAllocsFlatInExperiments(t *testing.T) {
	const maxPerRoute = 4
	one, eight := exportAllocsPerRoute(t, 1), exportAllocsPerRoute(t, 8)
	t.Logf("allocations per exported route: %.2f at E=1, %.2f at E=8", one, eight)
	if slope := (eight - one) / 7; slope > 0.25 {
		t.Errorf("an extra experiment costs %.2f allocations per route (%.2f at E=8 against %.2f at E=1), want at most 0.25", slope, eight, one)
	}
	if worst := max(one, eight); worst > maxPerRoute {
		t.Errorf("a churned route costs the router %.2f allocations, want at most %d", worst, maxPerRoute)
	}
}
