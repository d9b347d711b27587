package core

import (
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/guard"
)

// TestDampedRouteWithheldButRetained pins the RFC 2439 contract on the
// neighbor path: a suppressed route is withdrawn from experiments but
// stays in the adj-RIB-in, and is re-exported automatically once its
// penalty decays below the reuse threshold.
func TestDampedRouteWithheldButRetained(t *testing.T) {
	f := newFig1With(t, func(cfg *Config) {
		cfg.Damping = &guard.DampingConfig{HalfLife: 100 * time.Millisecond}
	})
	x1 := f.connectExperiment(t, "X1", true)

	prefix := "192.168.9.0/24"
	nlri := bgp.NLRI{Prefix: pfx(prefix), ID: 1}
	f.n1.announce(prefix, []uint32{n1ASN}, "192.0.2.1")
	waitFor(t, 5*time.Second, "route exported to experiment", func() bool {
		_, ok := x1.routes()[nlri]
		return ok
	})

	// Flap until suppressed: withdraw+announce twice is 4 flaps, past
	// the default 3000 threshold.
	for i := 0; i < 2; i++ {
		f.n1.withdraw(prefix)
		f.n1.announce(prefix, []uint32{n1ASN}, "192.0.2.1")
	}
	// The route is also absent between each flap's withdraw and
	// re-announce, so absence alone does not mean the suppression has
	// happened yet.
	waitFor(t, 5*time.Second, "route suppressed and withdrawn from experiment", func() bool {
		_, ok := x1.routes()[nlri]
		return !ok && f.router.damper.Suppressed(guard.Key{Peer: "N1", Prefix: pfx(prefix)})
	})
	// The announcement survives in the adj-RIB-in, marked damped — it
	// must be reusable without the neighbor re-announcing.
	if n := f.nbr1.Table.PathCount(); n != 1 {
		t.Fatalf("adj-RIB-in path count = %d, want 1 (suppression must not evict)", n)
	}
	damped := func() int {
		n := 0
		for _, p := range f.nbr1.Table.Paths(pfx(prefix)) {
			if p.Damped {
				n++
			}
		}
		return n
	}
	if n := damped(); n != 1 {
		t.Fatalf("damped paths in adj-RIB-in = %d, want 1", n)
	}

	// Decay releases the route and the reuse callback re-exports the
	// retained copy — no neighbor activity required.
	waitFor(t, 5*time.Second, "route re-exported after penalty decay", func() bool {
		_, ok := x1.routes()[nlri]
		return ok
	})
	if damped() != 0 {
		t.Fatal("damped mark not cleared on reuse")
	}
	if f.router.damper.Suppressed(guard.Key{Peer: "N1", Prefix: pfx(prefix)}) {
		t.Fatal("damper still reports suppression after reuse")
	}
}

// TestShedAnnouncementsTreatAsWithdraw pins the last shedding stage:
// with announcement shedding on, a new experiment announcement is not
// installed (treat-as-withdraw) while withdrawals keep working; turning
// shedding off restores normal operation.
func TestShedAnnouncementsTreatAsWithdraw(t *testing.T) {
	f := newFig1(t)
	x1 := f.connectExperiment(t, "X1", true)

	x1.announceV("10.1.0.0/24", 1, []uint32{expASN}, "100.65.0.1")
	waitFor(t, 5*time.Second, "announcement installed", func() bool {
		return f.router.ExperimentRoutes().PathCount() == 1
	})

	f.router.SetAnnouncementShed(true)
	x1.announceV("10.1.0.0/24", 2, []uint32{expASN}, "100.65.0.1")
	// The shed announcement must not appear; give the pipeline a moment.
	time.Sleep(100 * time.Millisecond)
	if n := f.router.ExperimentRoutes().PathCount(); n != 1 {
		t.Fatalf("expRoutes path count = %d under shedding, want 1", n)
	}

	f.router.SetAnnouncementShed(false)
	x1.announceV("10.1.0.0/24", 2, []uint32{expASN}, "100.65.0.1")
	waitFor(t, 5*time.Second, "announcement installed after shedding lifted", func() bool {
		return f.router.ExperimentRoutes().PathCount() == 2
	})
}

// TestTableDumpWithholdsDampedRoutes: an experiment that connects while a
// neighbor route is suppressed does not receive it in its table dump,
// just as incremental export withheld it from the experiments already
// connected.
func TestTableDumpWithholdsDampedRoutes(t *testing.T) {
	f := newFig1With(t, func(cfg *Config) {
		cfg.Damping = &guard.DampingConfig{HalfLife: 10 * time.Second}
	})
	x1 := f.connectExperiment(t, "X1", true)

	// N1's only route is the flapped one, so a whole dump block of N1's
	// is withheld; N2's route follows it in the dump.
	flapped, steady := "192.168.9.0/24", "192.168.10.0/24"
	f.n2.announce(steady, []uint32{n2ASN}, "192.0.2.2")
	f.n1.announce(flapped, []uint32{n1ASN}, "192.0.2.1")
	for i := 0; i < 2; i++ {
		f.n1.withdraw(flapped)
		f.n1.announce(flapped, []uint32{n1ASN}, "192.0.2.1")
	}
	waitFor(t, 5*time.Second, "route suppressed and withheld from X1", func() bool {
		_, ok := x1.routes()[bgp.NLRI{Prefix: pfx(flapped), ID: 1}]
		return !ok && f.router.damper.Suppressed(guard.Key{Peer: "N1", Prefix: pfx(flapped)}) &&
			len(f.nbr1.Table.Paths(pfx(flapped))) == 1
	})

	x2 := f.connectExperiment(t, "X2", true)
	waitFor(t, 5*time.Second, "the tables dumped to X2", func() bool {
		_, ok := x2.routes()[bgp.NLRI{Prefix: pfx(steady), ID: 2}]
		return ok
	})
	if _, ok := x2.routes()[bgp.NLRI{Prefix: pfx(flapped), ID: 1}]; ok {
		t.Error("the table dump gave X2 a route damping withholds from X1")
	}
}
