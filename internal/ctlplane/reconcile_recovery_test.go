package ctlplane

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/chaos"
)

// seedInstalled plants an installed route with an unknown fingerprint —
// what Observed reports for a graceful-restart-retained route after the
// actuator that sent it died.
func seedInstalled(act *fakeActuator, key AnnKey, adoptable bool) {
	act.edit(func() {
		act.anns[key] = ""
		act.adoptable[key] = adoptable
	})
}

func TestReconcilerAdoptsRecoveredInstall(t *testing.T) {
	act := newFakeActuator()
	key := AnnKey{Experiment: "alpha", PoP: "seattle",
		Prefix: netip.MustParsePrefix("184.164.224.0/24")}
	seedInstalled(act, key, true)
	store, rec := testReconciler(t, act, nil)

	obj, _, err := store.Create(testSpec("alpha"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	st := waitPhase(t, rec, "alpha", PhaseConverged)
	if st.ConvergedRevision != obj.Revision {
		t.Fatalf("converged revision = %d, want %d", st.ConvergedRevision, obj.Revision)
	}
	// The retained install was re-claimed, not re-sent: zero update
	// budget burned.
	if n := act.count("announce"); n != 0 {
		t.Fatalf("recovery announced %d times, want 0 (adoption)", n)
	}
	if n := act.count("adopt"); n != 1 {
		t.Fatalf("adopt called %d times, want 1", n)
	}
	act.mu.Lock()
	fp := act.anns[key]
	act.mu.Unlock()
	if fp == "" {
		t.Fatal("adopted route still has unknown fingerprint")
	}
}

func TestReconcilerAdoptMismatchFallsBackToAnnounce(t *testing.T) {
	act := newFakeActuator()
	key := AnnKey{Experiment: "alpha", PoP: "seattle",
		Prefix: netip.MustParsePrefix("184.164.224.0/24")}
	seedInstalled(act, key, false) // retained route no longer matches
	store, rec := testReconciler(t, act, nil)

	store.Create(testSpec("alpha"))
	waitPhase(t, rec, "alpha", PhaseConverged)
	if n := act.count("adopt"); n == 0 {
		t.Fatal("adopt never attempted for a fingerprint-unknown install")
	}
	// ErrAdoptMismatch is not an error: the pass falls through to a
	// normal re-announce in the same batch.
	if n := act.count("announce"); n != 1 {
		t.Fatalf("announce called %d times after adopt mismatch, want 1", n)
	}
	st, _ := rec.ObjectStatusFor("alpha")
	if st.Attempts != 0 {
		t.Fatalf("adopt mismatch counted as failure: %+v", st)
	}
}

func TestReconcilerRejectedPhaseDistinguishesKinds(t *testing.T) {
	for _, kind := range []string{RejectDamping, RejectRPKI, RejectRateLimit} {
		t.Run(kind, func(t *testing.T) {
			act := newFakeActuator()
			act.setFail("announce", &RejectedError{Kind: kind, Reason: "engine said no"})
			store, rec := testReconciler(t, act, nil)
			store.Create(testSpec("alpha"))

			st := waitPhase(t, rec, "alpha", PhaseRejected)
			if st.RejectKind != kind {
				t.Fatalf("reject kind = %q, want %q", st.RejectKind, kind)
			}
			if st.NextRetry.IsZero() || st.Attempts == 0 {
				t.Fatalf("rejected status has no retry schedule: %+v", st)
			}
			// The engine relents (damping decayed, ROA fixed, window
			// rolled): the object converges and the rejection state clears.
			act.setFail("announce", nil)
			st = waitPhase(t, rec, "alpha", PhaseConverged)
			if st.RejectKind != "" || st.Attempts != 0 {
				t.Fatalf("recovery did not clear rejection state: %+v", st)
			}
		})
	}
}

func TestReconcilerShedSkipsAnnounceBudget(t *testing.T) {
	act := newFakeActuator()
	act.edit(func() { act.shedding["seattle"] = true })
	store, rec := testReconciler(t, act, nil)
	store.Create(testSpec("alpha"))

	st := waitPhase(t, rec, "alpha", PhaseRejected)
	if st.RejectKind != RejectShedding {
		t.Fatalf("reject kind = %q, want %q", st.RejectKind, RejectShedding)
	}
	// The shed check runs before the send: no update budget burned on an
	// announcement the overloaded PoP would drop.
	if n := act.count("announce"); n != 0 {
		t.Fatalf("announced %d times into a shedding PoP, want 0", n)
	}
	act.edit(func() { act.shedding["seattle"] = false })
	waitPhase(t, rec, "alpha", PhaseConverged)
}

func TestReconcilerAsyncRejectionMatchesInflight(t *testing.T) {
	act := newFakeActuator()
	act.edit(func() { act.holdInstall = true }) // accepted by the session, never installed
	store, rec := testReconciler(t, act, nil)
	store.Create(testSpec("alpha"))
	waitPhase(t, rec, "alpha", PhaseConverging)

	// The engine's audit log reports the rejection after the fact.
	act.edit(func() {
		act.rejections = append(act.rejections, Rejection{
			Experiment: "alpha", PoP: "seattle",
			Prefix: netip.MustParsePrefix("184.164.224.0/24"),
			Kind:   RejectRPKI, Reason: "RPKI invalid: origin not authorized",
			At: time.Now(),
		})
	})

	st := waitPhase(t, rec, "alpha", PhaseRejected)
	if st.RejectKind != RejectRPKI {
		t.Fatalf("reject kind = %q, want %q", st.RejectKind, RejectRPKI)
	}
	if st.LastError == "" {
		t.Fatalf("rejection reason not surfaced: %+v", st)
	}
}

func TestReconcilerSweepsOrphans(t *testing.T) {
	act := newFakeActuator()
	// Platform state with no desired object: a crash-orphaned experiment.
	ghostKey := AnnKey{Experiment: "ghost", PoP: "seattle",
		Prefix: netip.MustParsePrefix("184.164.230.0/24")}
	act.edit(func() {
		act.anns[ghostKey] = "fp-ghost"
		act.sessions[SessKey{Experiment: "ghost", PoP: "seattle"}] = true
	})
	store, rec := testReconciler(t, act, nil)

	// A live object rides along untouched.
	store.Create(testSpec("alpha"))
	waitPhase(t, rec, "alpha", PhaseConverged)

	waitFor(t, "the orphan swept", func() bool {
		act.mu.Lock()
		defer act.mu.Unlock()
		_, present := act.anns[ghostKey]
		return !present
	})
	act.mu.Lock()
	defer act.mu.Unlock()
	if _, still := act.anns[ghostKey]; still {
		t.Fatal("orphan announcement never torn down")
	}
	if act.sessions[SessKey{Experiment: "ghost", PoP: "seattle"}] {
		t.Fatal("orphan session never torn down")
	}
	// The live experiment survived the sweep.
	prefix := netip.MustParsePrefix("184.164.224.0/24")
	if _, ok := act.anns[AnnKey{Experiment: "alpha", PoP: "seattle", Prefix: prefix}]; !ok {
		t.Fatal("orphan sweep tore down a live experiment")
	}
}

func TestReconcilerCrashHookTerminatesLoop(t *testing.T) {
	crasher := chaos.NewCrasher()
	crashed := make(chan struct{})
	act := newFakeActuator()
	store := NewStore(StoreConfig{})
	rec := NewReconciler(store, act, nil, ReconcilerConfig{
		Resync:         5 * time.Millisecond,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		ActuationGrace: 100 * time.Millisecond,
		CrashHook:      crasher.Hook(),
		OnCrash:        func(v any) { close(crashed) },
		Logf:           t.Logf,
	})
	done := make(chan struct{})
	go func() { rec.Run(); close(done) }()
	defer rec.Close()

	crasher.Arm("mid-batch", 0)
	store.Create(testSpec("alpha"))

	select {
	case <-crashed:
	case <-time.After(5 * time.Second):
		t.Fatal("armed mid-batch crash never fired")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reconcile loop survived an injected crash")
	}
	if !crasher.Fired() {
		t.Fatal("crasher did not report firing")
	}
}
