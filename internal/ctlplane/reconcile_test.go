package ctlplane

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// fakeActuator simulates the platform: actuations mutate its state
// synchronously unless installDelay holds routes back (modelling the
// asynchronous session→RIB pipeline), and any method can be forced to
// fail to drive the error/backoff paths.
type fakeActuator struct {
	mu       sync.Mutex
	sessions map[SessKey]bool
	anns     map[AnnKey]string
	ensured  map[string]int

	calls map[string]int
	fail  map[string]error // method name -> forced error

	// gen is the simulated platform's generation: every actuation and
	// every edit moves it.
	gen uint64

	// pendingAnns holds announced routes out of Observed() until
	// released, simulating slow RIB install.
	holdInstall bool
	pendingAnns map[AnnKey]string

	// adoptable marks fingerprint-unknown routes (anns[key] == "") that
	// Adopt should accept, simulating a recovered install whose
	// attributes still match the spec.
	adoptable map[AnnKey]bool

	// rejections is the engine's audit of refusals; Observed reports
	// those after rejRead, the way the platform reads its audit log.
	rejections []Rejection
	rejRead    int
	// shedding marks PoPs reporting overload shed.
	shedding map[string]bool
}

func newFakeActuator() *fakeActuator {
	return &fakeActuator{
		sessions:    make(map[SessKey]bool),
		anns:        make(map[AnnKey]string),
		ensured:     make(map[string]int),
		calls:       make(map[string]int),
		fail:        make(map[string]error),
		pendingAnns: make(map[AnnKey]string),
		adoptable:   make(map[AnnKey]bool),
		shedding:    make(map[string]bool),
		gen:         1,
	}
}

// edit applies a test's direct change to the simulated platform.
func (f *fakeActuator) edit(fn func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn()
	f.gen++
}

func (f *fakeActuator) called(name string) error {
	f.calls[name]++
	if name != "validate" && name != "observed" {
		f.gen++
	}
	return f.fail[name]
}

func (f *fakeActuator) count(name string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[name]
}

func (f *fakeActuator) Validate(spec Spec) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.called("validate")
}

func (f *fakeActuator) EnsureExperiment(obj *Object) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.called("ensure-experiment"); err != nil {
		return err
	}
	f.ensured[obj.Spec.Name]++
	return nil
}

func (f *fakeActuator) EnsureSession(experiment, pop string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.called("ensure-session"); err != nil {
		return err
	}
	f.sessions[SessKey{experiment, pop}] = true
	return nil
}

func (f *fakeActuator) Announce(ann CompiledAnn) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.shedding[ann.Key.PoP] {
		// Refused before the send, like the platform actuator: the
		// announce count is of updates that reached the platform.
		return &RejectedError{Kind: RejectShedding, Reason: "PoP " + ann.Key.PoP + " is shedding"}
	}
	if err := f.called("announce"); err != nil {
		return err
	}
	if f.holdInstall {
		f.pendingAnns[ann.Key] = ann.Fingerprint
	} else {
		f.anns[ann.Key] = ann.Fingerprint
	}
	return nil
}

func (f *fakeActuator) Adopt(obj *Object, ann CompiledAnn) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.called("adopt"); err != nil {
		return err
	}
	cur, ok := f.anns[ann.Key]
	if !ok {
		return fmt.Errorf("adopt %s: not installed", ann.Key)
	}
	// The fake models fingerprint-unknown recovered routes as "": an
	// adoptable route either matches the desired fingerprint already or
	// was seeded by the test as adoptable via adoptable[key].
	if cur != "" && cur != ann.Fingerprint {
		return ErrAdoptMismatch
	}
	if cur == "" && !f.adoptable[ann.Key] {
		return ErrAdoptMismatch
	}
	f.anns[ann.Key] = ann.Fingerprint
	return nil
}

func (f *fakeActuator) Withdraw(experiment, pop string, prefix netip.Prefix, version uint32) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.called("withdraw"); err != nil {
		return err
	}
	delete(f.anns, AnnKey{experiment, pop, prefix, version})
	return nil
}

func (f *fakeActuator) CloseSession(experiment, pop string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.called("close-session"); err != nil {
		return err
	}
	delete(f.sessions, SessKey{experiment, pop})
	return nil
}

func (f *fakeActuator) Teardown(experiment string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.called("teardown"); err != nil {
		return err
	}
	for k := range f.sessions {
		if k.Experiment == experiment {
			delete(f.sessions, k)
		}
	}
	for k := range f.anns {
		if k.Experiment == experiment {
			delete(f.anns, k)
		}
	}
	delete(f.ensured, experiment)
	return nil
}

func (f *fakeActuator) Observed(since uint64) (Observed, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gen == since {
		return Observed{Gen: since}, nil
	}
	if err := f.called("observed"); err != nil {
		return Observed{}, err
	}
	obs := Observed{Gen: f.gen, Sessions: make(map[SessKey]bool), Anns: make(map[AnnKey]string)}
	obs.Rejections = f.rejections[f.rejRead:]
	f.rejRead = len(f.rejections)
	for k, v := range f.sessions {
		obs.Sessions[k] = v
	}
	for k, v := range f.anns {
		obs.Anns[k] = v
	}
	return obs, nil
}

// releaseInstalls flushes held announcements into the observable RIB.
func (f *fakeActuator) releaseInstalls() {
	f.edit(func() {
		for k, v := range f.pendingAnns {
			f.anns[k] = v
		}
		f.pendingAnns = make(map[AnnKey]string)
	})
}

func (f *fakeActuator) setFail(method string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		delete(f.fail, method)
	} else {
		f.fail[method] = err
	}
}

func testReconciler(t *testing.T, act Actuator, hub *Hub) (*Store, *Reconciler) {
	t.Helper()
	store := NewStore(StoreConfig{})
	rec := NewReconciler(store, act, hub, ReconcilerConfig{
		Resync:         5 * time.Millisecond,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		ActuationGrace: 100 * time.Millisecond,
		Logf:           t.Logf,
	})
	go rec.Run()
	t.Cleanup(rec.Close)
	return store, rec
}

func waitPhase(t *testing.T, rec *Reconciler, name string, phase Phase) ObjectStatus {
	t.Helper()
	var st ObjectStatus
	waitFor(t, "experiment "+name+" to reach "+string(phase), func() bool {
		var ok bool
		st, ok = rec.ObjectStatusFor(name)
		return ok && st.Phase == phase
	})
	return st
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func waitGone(t *testing.T, store *Store, name string) {
	t.Helper()
	waitFor(t, name+" removed from the store", func() bool { _, err := store.Get(name); return err != nil })
}

func TestReconcilerConverges(t *testing.T) {
	act := newFakeActuator()
	store, rec := testReconciler(t, act, nil)

	spec := testSpec("alpha")
	spec.Announcements[0].PoPs = []string{"seattle", "amsterdam"}
	obj, _, err := store.Create(spec)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	st := waitPhase(t, rec, "alpha", PhaseConverged)
	if st.ConvergedRevision != obj.Revision {
		t.Fatalf("converged revision = %d, want %d", st.ConvergedRevision, obj.Revision)
	}
	act.mu.Lock()
	sessions, anns := len(act.sessions), len(act.anns)
	act.mu.Unlock()
	if sessions != 2 || anns != 2 {
		t.Fatalf("actuated %d sessions, %d announcements; want 2, 2", sessions, anns)
	}
}

func TestReconcilerIdempotentSteadyState(t *testing.T) {
	act := newFakeActuator()
	store, rec := testReconciler(t, act, nil)
	store.Create(testSpec("alpha"))
	waitPhase(t, rec, "alpha", PhaseConverged)

	base := act.count("announce")
	time.Sleep(50 * time.Millisecond) // many resync passes
	if n := act.count("announce"); n != base {
		t.Fatalf("steady state re-announced: %d -> %d", base, n)
	}
	if n := act.count("ensure-experiment"); n != 1 {
		t.Fatalf("ensure-experiment ran %d times at one revision, want 1", n)
	}
}

func TestReconcilerActuationGrace(t *testing.T) {
	act := newFakeActuator()
	act.edit(func() { act.holdInstall = true }) // announcements never appear in the RIB...
	store, rec := testReconciler(t, act, nil)
	store.Create(testSpec("alpha"))

	// The object stays Converging (install pending) without re-sending
	// the announcement every pass — each re-send would burn §4.7 budget.
	waitPhase(t, rec, "alpha", PhaseConverging)
	time.Sleep(40 * time.Millisecond) // ~8 resync passes inside the grace window
	if n := act.count("announce"); n != 1 {
		t.Fatalf("announce sent %d times within grace window, want 1", n)
	}
	act.releaseInstalls()
	waitPhase(t, rec, "alpha", PhaseConverged)
}

func TestReconcilerSpecUpdateSteers(t *testing.T) {
	act := newFakeActuator()
	store, rec := testReconciler(t, act, nil)
	obj, _, _ := store.Create(testSpec("alpha"))
	waitPhase(t, rec, "alpha", PhaseConverged)

	// Move the announcement to a different PoP with a prepend: the old
	// atom must be withdrawn, the new one announced, the old session
	// closed.
	next := testSpec("alpha")
	next.Announcements[0].PoPs = []string{"amsterdam"}
	next.Announcements[0].Prepend = 3
	upd, err := store.Update("alpha", obj.Revision, next)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	waitFor(t, "the update to converge", func() bool {
		st, _ := rec.ObjectStatusFor("alpha")
		return st.ConvergedRevision == upd.Revision
	})
	act.mu.Lock()
	defer act.mu.Unlock()
	prefix := netip.MustParsePrefix("184.164.224.0/24")
	if _, old := act.anns[AnnKey{"alpha", "seattle", prefix, 0}]; old {
		t.Fatal("stale seattle announcement not withdrawn")
	}
	if _, ok := act.anns[AnnKey{"alpha", "amsterdam", prefix, 0}]; !ok {
		t.Fatal("amsterdam announcement missing")
	}
	if act.sessions[SessKey{"alpha", "seattle"}] {
		t.Fatal("unreferenced seattle session not closed")
	}
}

func TestReconcilerErrorBackoffAndRecovery(t *testing.T) {
	act := newFakeActuator()
	act.setFail("announce", fmt.Errorf("session flap"))
	store, rec := testReconciler(t, act, nil)
	store.Create(testSpec("alpha"))

	st := waitPhase(t, rec, "alpha", PhaseError)
	if st.LastError == "" || st.Attempts == 0 || st.NextRetry.IsZero() {
		t.Fatalf("error status incomplete: %+v", st)
	}
	act.setFail("announce", nil)
	st = waitPhase(t, rec, "alpha", PhaseConverged)
	if st.Attempts != 0 || st.LastError != "" {
		t.Fatalf("recovery did not clear error state: %+v", st)
	}
}

func TestReconcilerTeardown(t *testing.T) {
	act := newFakeActuator()
	store, rec := testReconciler(t, act, nil)
	store.Create(testSpec("alpha"))
	waitPhase(t, rec, "alpha", PhaseConverged)

	if _, err := store.Delete("alpha", 0); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	waitGone(t, store, "alpha")
	act.mu.Lock()
	defer act.mu.Unlock()
	if len(act.anns) != 0 || len(act.sessions) != 0 {
		t.Fatalf("teardown left state: anns=%v sessions=%v", act.anns, act.sessions)
	}
	if act.calls["teardown"] == 0 {
		t.Fatal("teardown never called")
	}
}

func TestReconcilerPublishesTransitions(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	sub := hub.Subscribe(64, StreamReconcile)
	defer sub.Close()

	act := newFakeActuator()
	store, rec := testReconciler(t, act, hub)
	store.Create(testSpec("alpha"))
	waitPhase(t, rec, "alpha", PhaseConverged)

	seen := make(map[Phase]bool)
	deadline := time.After(2 * time.Second)
	for !seen[PhaseConverged] {
		select {
		case e := <-sub.Events():
			payload, ok := e.Data.(struct {
				Name     string `json:"name"`
				Phase    Phase  `json:"phase"`
				Revision int64  `json:"revision"`
				Error    string `json:"error,omitempty"`
				Reject   string `json:"reject_kind,omitempty"`
			})
			if !ok {
				t.Fatalf("unexpected payload type %T", e.Data)
			}
			seen[payload.Phase] = true
		case <-deadline:
			t.Fatalf("converged transition never streamed; saw %v", seen)
		}
	}
	if !seen[PhaseConverging] {
		t.Fatalf("converging transition not streamed; saw %v", seen)
	}
}

// TestReconcilerSkipsUnchangedTicks: once converged, resync ticks read
// only the generation; an edit to the platform or a kick brings back
// one full view.
func TestReconcilerSkipsUnchangedTicks(t *testing.T) {
	act := newFakeActuator()
	store, rec := testReconciler(t, act, nil)
	store.Create(testSpec("alpha"))
	waitPhase(t, rec, "alpha", PhaseConverged)

	// The pass that converged is quiet; later ticks take no full view.
	views := func() int { return act.count("observed") }
	deadline := time.Now().Add(5 * time.Second)
	for prev := -1; views() != prev; {
		if time.Now().After(deadline) {
			t.Fatal("full views never stopped")
		}
		prev = views()
		time.Sleep(20 * time.Millisecond) // four ticks
	}
	wantMore := func(what string, change func()) {
		t.Helper()
		base := views()
		change()
		waitFor(t, what+" to take a full view", func() bool { return views() != base })
	}
	wantMore("platform edit", func() { act.edit(func() {}) }) // any edit moves the generation
	wantMore("kick", rec.Kick)
}
