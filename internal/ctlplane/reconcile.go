package ctlplane

import (
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"time"
)

// Actuator is the reconciler's hand on the platform. Every method must
// be idempotent — the reconciler retries freely — and every actuation
// must flow through the platform's audited enforcement path (the
// peering implementation drives a normal experiment Client, so policy
// evaluates and logs each change like any researcher-issued one).
// Objects passed in are stored, already compiled: read Caps and
// Allocation rather than re-deriving them from the spec.
type Actuator interface {
	// Validate dry-runs a spec against platform state (PoPs exist,
	// allocation does not collide) without actuating anything.
	Validate(spec Spec) error
	// EnsureExperiment registers the experiment (proposal, approval,
	// credentials, capability grant) and applies spec-level overrides.
	EnsureExperiment(obj *Object) error
	// EnsureSession brings the experiment's tunnel + BGP session at a
	// PoP to Established.
	EnsureSession(experiment, pop string) error
	// Announce actuates one announcement atom. It returns a
	// *RejectedError, without sending, when the platform would refuse
	// the announcement anyway (an overloaded PoP shedding new ones).
	Announce(ann CompiledAnn) error
	// Adopt re-claims an announcement already installed on the platform
	// (recovered from the durable log after a restart) without
	// re-sending it, so recovery does not burn the §4.7 per-prefix
	// update budget. Returns ErrAdoptMismatch when the installed route
	// does not match the desired announcement, in which case the
	// reconciler falls back to a normal Announce.
	Adopt(obj *Object, ann CompiledAnn) error
	// Withdraw retracts one announcement atom.
	Withdraw(experiment, pop string, prefix netip.Prefix, version uint32) error
	// CloseSession tears down the experiment's session at one PoP.
	CloseSession(experiment, pop string) error
	// Teardown removes the experiment entirely (sessions, credentials,
	// enforcement registration).
	Teardown(experiment string) error
	// Observed reports the actuator-managed platform state: which
	// sessions are established, which announcements are installed
	// (verified against the routers' RIBs) with the fingerprint each was
	// actuated at, and the engine's rejections since the previous view.
	// When nothing it reads has changed since the view whose Gen is
	// since, it returns Observed{Gen: since} and reads nothing more;
	// since 0 always gets a full view. It is called from one goroutine.
	Observed(since uint64) (Observed, error)
}

// ErrAdoptMismatch is returned by Actuator.Adopt when the installed
// route does not match the desired announcement; the reconciler falls
// back to a normal (budgeted) Announce.
var ErrAdoptMismatch = errors.New("ctlplane: installed route does not match desired announcement")

// Rejection kinds, distinguishing why the engine refused an
// announcement (ObjectStatus.RejectKind).
const (
	RejectDamping   = "damping"    // RFC 2439 flap damping penalty above suppress threshold
	RejectRateLimit = "rate-limit" // §4.7 per-prefix daily update budget exhausted
	RejectRPKI      = "rpki"       // RPKI-Invalid origin (RFC 6811)
	RejectShedding  = "shedding"   // PoP overloaded; new announcements treat-as-withdrawn
	RejectPolicy    = "policy"     // any other policy-engine refusal
)

// Rejection is one engine-side refusal of an experiment announcement,
// read from the platform's policy audit log.
type Rejection struct {
	Experiment string
	PoP        string
	Prefix     netip.Prefix
	Kind       string
	Reason     string
	At         time.Time
}

// RejectedError marks an actuation refused by the platform's admission
// machinery rather than failed; the reconciler surfaces it as
// PhaseRejected with the kind and reason instead of a generic error.
type RejectedError struct {
	Kind   string
	Reason string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("rejected (%s): %s", e.Kind, e.Reason)
}

// Observed is the actuator's view of current platform state for the
// experiments it manages.
type Observed struct {
	// Gen identifies the platform state the view was read at: it moves
	// whenever a field below may have changed, and is never 0.
	Gen uint64
	// Sessions maps experiment sessions to "established".
	Sessions map[SessKey]bool
	// Anns maps installed announcements to the fingerprint they were
	// actuated with ("" when unknown).
	Anns map[AnnKey]string
	// Rejections are the engine's refusals recorded since the previous
	// full view.
	Rejections []Rejection
}

// Phase is an object's convergence state.
type Phase string

// Phases.
const (
	PhasePending    Phase = "pending"    // seen, not yet reconciled
	PhaseConverging Phase = "converging" // actions issued, verification pending
	PhaseConverged  Phase = "converged"  // desired == observed at Revision
	PhaseError      Phase = "error"      // last attempt failed; backing off
	PhaseRejected   Phase = "rejected"   // engine refused the announcement; backing off
	PhaseDeleting   Phase = "deleting"   // tombstoned, teardown in progress
)

// ObjectStatus is the reconciler's per-object convergence record.
type ObjectStatus struct {
	Name  string `json:"name"`
	Phase Phase  `json:"phase"`
	// Revision is the spec revision the last reconcile pass acted on.
	Revision int64 `json:"revision"`
	// ConvergedRevision is the newest revision verified desired ==
	// observed (0 = never).
	ConvergedRevision int64 `json:"converged_revision"`
	// Actions counts actuations performed for this object.
	Actions uint64 `json:"actions"`
	// Attempts counts consecutive failed passes (reset on success).
	Attempts int `json:"attempts,omitempty"`
	// LastError is the most recent failure, if any.
	LastError string `json:"last_error,omitempty"`
	// RejectKind distinguishes engine refusals ("damping",
	// "rate-limit", "rpki", "shedding", "policy"); set while Phase is
	// PhaseRejected, cleared on any other transition.
	RejectKind string `json:"reject_kind,omitempty"`
	// NextRetry is when a backed-off object is reconsidered.
	NextRetry time.Time `json:"next_retry,omitempty"`
	// LastTransition is when Phase last changed.
	LastTransition time.Time `json:"last_transition"`
}

// ReconcilerConfig tunes the loop.
type ReconcilerConfig struct {
	// Resync is the periodic reconcile interval (observed state can
	// drift without a store commit). A tick runs a full pass only when
	// the store or the observed platform changed since the last pass,
	// or that pass left work pending. Default 250ms.
	Resync time.Duration
	// BackoffBase and BackoffMax bound the per-object exponential error
	// backoff. Defaults 100ms and 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxActionsPerSecond rate-limits actuations across all objects
	// (the §4.7 stance: the control plane must not itself become an
	// update storm). Default 200.
	MaxActionsPerSecond float64
	// ActuationGrace is how long an issued announce/withdraw is treated
	// as in flight before the reconciler re-actuates it. Route install
	// is asynchronous (session send → router processing → RIB), and
	// every re-send burns the experiment's §4.7 update budget, so the
	// loop waits this long for the RIB to catch up. Default 2s.
	ActuationGrace time.Duration
	// Logf receives reconciler logs.
	Logf func(format string, args ...any)
	// CrashHook, when set, fires with the injection-point name
	// ("mid-batch") before every actuation. Chaos tests arm it to
	// panic, simulating a SIGKILL between actions. Nil in production.
	CrashHook func(point string)
	// OnCrash, when set, receives panics recovered from the reconcile
	// loop; the loop then terminates, leaving the reconciler as dead as
	// a killed process. With OnCrash nil (production) panics propagate
	// and crash the daemon — crash-only software restarts, it does not
	// limp.
	OnCrash func(v any)
}

// Reconciler converges desired state (Store) onto observed state
// (Actuator) — the §5 loop: diff, actuate, verify, repeat.
type Reconciler struct {
	store *Store
	act   Actuator
	cfg   ReconcilerConfig
	hub   *Hub // optional

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
	once sync.Once

	mu       sync.Mutex
	statuses map[string]*ObjectStatus
	ensured  map[string]int64 // experiment -> revision EnsureExperiment last ran for
	lastAct  time.Time

	// In-flight actuation records, touched only by the Run goroutine.
	inflightAnn map[AnnKey]actRecord
	inflightWd  map[AnnKey]time.Time
	// tornDown records recent Teardown calls so the orphan sweep does
	// not re-tear an experiment while the (asynchronous) observed state
	// catches up. Run-goroutine only.
	tornDown map[string]time.Time
	// What the last full pass saw, and whether it left nothing pending:
	// a tick that finds the same store revision and observed generation
	// after a quiet pass has nothing to do. Run-goroutine only.
	lastRev int64
	lastGen uint64
	quiet   bool

	mRuns      metric
	mErrors    metric
	mRejected  metric
	mOrphans   metric
	mConverged gaugeMetric
	mActions   map[string]metric
}

// NewReconciler wires a reconciler over a store and an actuator. hub
// may be nil. Call Run to start the loop.
func NewReconciler(store *Store, act Actuator, hub *Hub, cfg ReconcilerConfig) *Reconciler {
	if cfg.Resync <= 0 {
		cfg.Resync = 250 * time.Millisecond
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.MaxActionsPerSecond <= 0 {
		cfg.MaxActionsPerSecond = 200
	}
	if cfg.ActuationGrace <= 0 {
		cfg.ActuationGrace = 2 * time.Second
	}
	r := &Reconciler{
		store:       store,
		act:         act,
		cfg:         cfg,
		hub:         hub,
		wake:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		statuses:    make(map[string]*ObjectStatus),
		ensured:     make(map[string]int64),
		inflightAnn: make(map[AnnKey]actRecord),
		inflightWd:  make(map[AnnKey]time.Time),
		tornDown:    make(map[string]time.Time),
		mRuns:       counter("ctlplane_reconcile_runs_total"),
		mErrors:     counter("ctlplane_reconcile_errors_total"),
		mRejected:   counter("ctlplane_reconcile_rejected_total"),
		mOrphans:    counter("ctlplane_reconcile_orphans_total"),
		mActions: map[string]metric{
			"ensure-experiment": counter("ctlplane_reconcile_actions_total", label("kind", "ensure-experiment")),
			"ensure-session":    counter("ctlplane_reconcile_actions_total", label("kind", "ensure-session")),
			"announce":          counter("ctlplane_reconcile_actions_total", label("kind", "announce")),
			"adopt":             counter("ctlplane_reconcile_actions_total", label("kind", "adopt")),
			"withdraw":          counter("ctlplane_reconcile_actions_total", label("kind", "withdraw")),
			"close-session":     counter("ctlplane_reconcile_actions_total", label("kind", "close-session")),
			"teardown":          counter("ctlplane_reconcile_actions_total", label("kind", "teardown")),
			"orphan-teardown":   counter("ctlplane_reconcile_actions_total", label("kind", "orphan-teardown")),
		},
		mConverged: gauge("ctlplane_objects_converged"),
	}
	store.OnCommit(r.Kick)
	return r
}

// Kick schedules an immediate full reconcile pass (coalescing).
func (r *Reconciler) Kick() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Run drives the loop until Close. Call in a goroutine.
func (r *Reconciler) Run() {
	defer close(r.done)
	tick := time.NewTicker(r.cfg.Resync)
	defer tick.Stop()
	for {
		kicked := false
		select {
		case <-r.stop:
			return
		case <-r.wake:
			kicked = true
		case <-tick.C:
		}
		if !r.pass(kicked) {
			return
		}
	}
}

// pass runs one reconcile iteration. When OnCrash is set, an injected
// crash panic is recovered, reported, and terminates the loop — the
// reconciler is then as dead as a SIGKILLed process, which is exactly
// what crash tests simulate. With OnCrash nil, panics propagate.
func (r *Reconciler) pass(kicked bool) (alive bool) {
	alive = true
	if r.cfg.OnCrash != nil {
		defer func() {
			if v := recover(); v != nil {
				r.cfg.OnCrash(v)
				alive = false
			}
		}()
	}
	r.reconcileOnce(kicked)
	return alive
}

// Close stops the loop and waits for the in-flight pass to finish.
func (r *Reconciler) Close() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}

// Status returns the per-object convergence records, sorted by name.
func (r *Reconciler) Status() []ObjectStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ObjectStatus, 0, len(r.statuses))
	for _, st := range r.statuses {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ObjectStatusFor returns one object's convergence record.
func (r *Reconciler) ObjectStatusFor(name string) (ObjectStatus, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.statuses[name]; ok {
		return *st, true
	}
	return ObjectStatus{}, false
}

// logf logs through the configured sink.
func (r *Reconciler) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// throttle enforces the global actuation rate limit; called before
// every actuator mutation.
func (r *Reconciler) throttle() {
	interval := time.Duration(float64(time.Second) / r.cfg.MaxActionsPerSecond)
	r.mu.Lock()
	next := r.lastAct.Add(interval)
	now := time.Now()
	if next.After(now) {
		r.lastAct = next
	} else {
		r.lastAct = now
	}
	r.mu.Unlock()
	if d := time.Until(next); d > 0 {
		time.Sleep(d)
	}
}

// actRecord is one in-flight announce: the fingerprint it was issued
// with and when.
type actRecord struct {
	fp string
	at time.Time
}

// action runs one rate-limited actuation, counting it per kind. st may
// be nil (orphan teardowns have no desired object to account against).
func (r *Reconciler) action(kind string, st *ObjectStatus, fn func() error) error {
	if r.cfg.CrashHook != nil {
		r.cfg.CrashHook("mid-batch")
	}
	r.throttle()
	if m, ok := r.mActions[kind]; ok {
		m.Inc()
	}
	if st != nil {
		r.mu.Lock()
		st.Actions++
		r.mu.Unlock()
	}
	return fn()
}

// backOff records a failed attempt: the object waits out an
// exponential backoff in phase, with kind set when the engine refused
// it. Returns the backoff. Caller holds r.mu.
func (r *Reconciler) backOff(st *ObjectStatus, phase Phase, rev int64, kind, msg string) time.Duration {
	st.Attempts++
	backoff := r.cfg.BackoffBase << min(uint(st.Attempts-1), 16)
	if backoff > r.cfg.BackoffMax || backoff <= 0 {
		backoff = r.cfg.BackoffMax
	}
	st.NextRetry = time.Now().Add(backoff)
	if kind != "" {
		r.mRejected.Inc()
		st.RejectKind = kind
	}
	r.setPhase(st, phase, rev, msg)
	return backoff
}

// setPhase transitions an object's phase, publishing to the hub when it
// actually changes.
func (r *Reconciler) setPhase(st *ObjectStatus, phase Phase, rev int64, errMsg string) {
	if phase != PhaseRejected {
		st.RejectKind = ""
	}
	changed := st.Phase != phase || st.Revision != rev || st.LastError != errMsg
	st.Phase = phase
	st.Revision = rev
	st.LastError = errMsg
	if changed {
		st.LastTransition = time.Now()
		if r.hub != nil {
			r.hub.Publish(StreamReconcile, struct {
				Name     string `json:"name"`
				Phase    Phase  `json:"phase"`
				Revision int64  `json:"revision"`
				Error    string `json:"error,omitempty"`
				Reject   string `json:"reject_kind,omitempty"`
			}{st.Name, phase, rev, errMsg, st.RejectKind})
		}
	}
}

// reconcileOnce runs one diff-and-converge pass over every object. An
// unkicked pass that finds the store at the last pass's revision and
// the platform at its generation, after a pass that left nothing
// pending, returns before it lists, observes or allocates anything.
func (r *Reconciler) reconcileOnce(kicked bool) {
	rev := r.store.Revision()
	var since uint64
	if r.quiet && !kicked && rev == r.lastRev {
		since = r.lastGen
	}
	obs, err := r.act.Observed(since)
	if err == nil && since != 0 && obs.Gen == since {
		return
	}
	r.mRuns.Inc()
	r.quiet = false
	if err != nil {
		r.mErrors.Inc()
		r.logf("ctlplane: observe failed: %v", err)
		return
	}
	objects := r.store.List()

	now := time.Now()
	r.rejectInflight(obs.Rejections)
	// In-flight records retire once the observed state shows them done
	// or their grace runs out (the next pass then re-actuates).
	maps.DeleteFunc(r.inflightAnn, func(_ AnnKey, rec actRecord) bool { return now.Sub(rec.at) >= r.cfg.ActuationGrace })
	maps.DeleteFunc(r.inflightWd, func(key AnnKey, at time.Time) bool {
		_, installed := obs.Anns[key]
		return !installed || now.Sub(at) >= r.cfg.ActuationGrace
	})
	live := make(map[string]bool, len(objects))
	converged := 0
	for i := range objects {
		obj := &objects[i]
		live[obj.Spec.Name] = true
		st := r.statusFor(obj.Spec.Name)
		r.mu.Lock()
		skip := now.Before(st.NextRetry)
		r.mu.Unlock()
		if skip {
			continue
		}
		var passErr error
		if obj.Deleting {
			r.setPhaseLocked(st, PhaseDeleting, obj.Revision, "")
			passErr = r.teardownObject(obj, st, obs)
		} else {
			passErr = r.convergeObject(obj, st, obs)
		}
		r.mu.Lock()
		if passErr != nil {
			r.mErrors.Inc()
			phase, kind := PhaseError, ""
			var rej *RejectedError
			if errors.As(passErr, &rej) {
				phase, kind = PhaseRejected, rej.Kind
			}
			if obj.Deleting {
				phase = PhaseDeleting
			}
			backoff := r.backOff(st, phase, obj.Revision, kind, passErr.Error())
			r.logf("ctlplane: reconcile %s@%d failed (attempt %d, retry in %s): %v",
				obj.Spec.Name, obj.Revision, st.Attempts, backoff, passErr)
		} else {
			st.Attempts = 0
			st.NextRetry = time.Time{}
		}
		if st.Phase == PhaseConverged {
			converged++
		}
		r.mu.Unlock()
	}
	r.sweepOrphans(obs, live, now)
	// Forget records of objects that no longer exist.
	r.mu.Lock()
	for name := range r.statuses {
		if !live[name] {
			delete(r.statuses, name)
			delete(r.ensured, name)
		}
	}
	r.mConverged.Set(int64(converged))
	r.mu.Unlock()
	r.lastRev, r.lastGen = rev, obs.Gen
	r.quiet = converged == len(objects) &&
		len(r.inflightAnn) == 0 && len(r.inflightWd) == 0 && len(r.tornDown) == 0
}

// sweepOrphans tears down platform state whose experiment has no
// desired object — the recovery half of crash-only operation: a crash
// between actuating and logging (or a spec removed while the daemon
// was down) leaves announcements dangling in the synthetic Internet
// with no owner, and nothing else will ever withdraw them.
func (r *Reconciler) sweepOrphans(obs Observed, live map[string]bool, now time.Time) {
	orphan := make(map[string]bool)
	for key := range obs.Anns {
		if !live[key.Experiment] {
			orphan[key.Experiment] = true
		}
	}
	for key := range obs.Sessions {
		if !live[key.Experiment] {
			orphan[key.Experiment] = true
		}
	}
	names := make([]string, 0, len(orphan))
	for name := range orphan {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		// A just-issued teardown needs the observed state to catch up;
		// don't hammer the platform in the meantime.
		if at, ok := r.tornDown[name]; ok && now.Sub(at) < r.cfg.ActuationGrace {
			continue
		}
		if err := r.action("orphan-teardown", nil, func() error { return r.act.Teardown(name) }); err != nil {
			r.mErrors.Inc()
			r.logf("ctlplane: orphan teardown %s failed: %v", name, err)
			continue
		}
		r.mOrphans.Inc()
		r.tornDown[name] = now
		for key := range obs.Anns {
			if key.Experiment == name {
				r.store.LogAct("withdraw", key, "")
			}
		}
		r.logf("ctlplane: tore down orphan experiment %s (platform state with no desired object)", name)
	}
	// A teardown record retires once a view read after it shows no
	// state left.
	maps.DeleteFunc(r.tornDown, func(name string, at time.Time) bool { return !orphan[name] && at.Before(now) })
}

// rejectInflight flips the objects whose in-flight announcements the
// engine refused to PhaseRejected. Without it the object sits in
// "converging", and every grace expiry re-burns update budget on a
// prefix the engine will refuse again.
func (r *Reconciler) rejectInflight(rejections []Rejection) {
	for _, rej := range rejections {
		// Only a rejection answering an announce this process issued
		// (and is still waiting on) flips state; stale audit entries
		// from before the announce are not ours.
		matched := false
		for key, rec := range r.inflightAnn {
			if key.Experiment != rej.Experiment || key.PoP != rej.PoP || key.Prefix != rej.Prefix {
				continue
			}
			if rej.At.Before(rec.at) {
				continue
			}
			delete(r.inflightAnn, key)
			matched = true
		}
		if !matched {
			continue
		}
		st := r.statusFor(rej.Experiment)
		r.mu.Lock()
		backoff := r.backOff(st, PhaseRejected, st.Revision, rej.Kind, rej.Reason)
		r.mu.Unlock()
		r.logf("ctlplane: %s rejected at %s (%s): %s — retry in %s",
			rej.Experiment, rej.PoP, rej.Kind, rej.Reason, backoff)
	}
}

// statusFor returns (creating if needed) the mutable status record.
func (r *Reconciler) statusFor(name string) *ObjectStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.statuses[name]
	if !ok {
		st = &ObjectStatus{Name: name, Phase: PhasePending, LastTransition: time.Now()}
		r.statuses[name] = st
	}
	return st
}

// setPhaseLocked is setPhase with its own locking (for call sites not
// already holding r.mu).
func (r *Reconciler) setPhaseLocked(st *ObjectStatus, phase Phase, rev int64, errMsg string) {
	r.mu.Lock()
	r.setPhase(st, phase, rev, errMsg)
	r.mu.Unlock()
}

// convergeObject diffs one live object against observed state and
// actuates the difference. Returns nil when the pass issued no failing
// action; convergence (diff empty) flips the phase to Converged.
func (r *Reconciler) convergeObject(obj *Object, st *ObjectStatus, obs Observed) error {
	name := obj.Spec.Name
	actions, pending := 0, 0
	now := time.Now()

	// Registration: once per revision (idempotent in the actuator, but
	// skipping it keeps steady-state passes read-only).
	r.mu.Lock()
	needEnsure := r.ensured[name] != obj.Revision
	r.mu.Unlock()
	if needEnsure {
		actions++
		if err := r.action("ensure-experiment", st, func() error { return r.act.EnsureExperiment(obj) }); err != nil {
			return fmt.Errorf("ensure experiment: %w", err)
		}
		r.mu.Lock()
		r.ensured[name] = obj.Revision
		r.mu.Unlock()
	}

	// Sessions up at every referenced PoP.
	for _, pop := range obj.pops {
		if obs.Sessions[SessKey{name, pop}] {
			continue
		}
		actions++
		if err := r.action("ensure-session", st, func() error { return r.act.EnsureSession(name, pop) }); err != nil {
			return fmt.Errorf("ensure session at %s: %w", pop, err)
		}
	}

	// Announcements present at the desired fingerprint. An announce
	// issued within the grace window counts as pending rather than
	// missing: install is asynchronous and re-sends burn update budget.
	for _, ann := range obj.atoms {
		cur, ok := obs.Anns[ann.Key]
		if ok && cur == ann.Fingerprint {
			delete(r.inflightAnn, ann.Key)
			continue
		}
		if ok && cur == "" {
			// Installed but not issued by this process — a restart
			// recovered it from the durable log. Adopt it in place
			// instead of re-announcing: re-sends burn update budget.
			actions++
			err := r.action("adopt", st, func() error { return r.act.Adopt(obj, ann) })
			if err == nil {
				r.store.LogAct("announce", ann.Key, ann.Fingerprint)
				delete(r.inflightAnn, ann.Key)
				continue
			}
			if !errors.Is(err, ErrAdoptMismatch) {
				return fmt.Errorf("adopt %s: %w", ann.Key, err)
			}
			// Installed route drifted from the spec; fall through and
			// re-announce at the desired fingerprint.
		}
		if rec, inflight := r.inflightAnn[ann.Key]; inflight && rec.fp == ann.Fingerprint {
			pending++
			continue
		}
		actions++
		if err := r.action("announce", st, func() error { return r.act.Announce(ann) }); err != nil {
			return fmt.Errorf("announce %s: %w", ann.Key, err)
		}
		r.inflightAnn[ann.Key] = actRecord{fp: ann.Fingerprint, at: now}
		r.store.LogAct("announce", ann.Key, ann.Fingerprint)
	}

	// Withdraw strays: observed announcements of this experiment no
	// longer in the spec. Same grace treatment as announces.
	for key := range obs.Anns {
		if key.Experiment != name || slices.ContainsFunc(obj.atoms, func(a CompiledAnn) bool { return a.Key == key }) {
			continue
		}
		if _, inflight := r.inflightWd[key]; inflight {
			pending++
			continue
		}
		actions++
		if err := r.action("withdraw", st, func() error {
			return r.act.Withdraw(key.Experiment, key.PoP, key.Prefix, key.Version)
		}); err != nil {
			return fmt.Errorf("withdraw %s: %w", key, err)
		}
		r.inflightWd[key] = now
		r.store.LogAct("withdraw", key, "")
	}

	// Close sessions at PoPs the spec no longer references.
	for key := range obs.Sessions {
		if key.Experiment != name {
			continue
		}
		if _, want := slices.BinarySearch(obj.pops, key.PoP); want {
			continue
		}
		actions++
		if err := r.action("close-session", st, func() error {
			return r.act.CloseSession(key.Experiment, key.PoP)
		}); err != nil {
			return fmt.Errorf("close session at %s: %w", key.PoP, err)
		}
	}

	if actions == 0 && pending == 0 {
		r.setPhaseLocked(st, PhaseConverged, obj.Revision, "")
		r.mu.Lock()
		if st.ConvergedRevision < obj.Revision {
			st.ConvergedRevision = obj.Revision
		}
		r.mu.Unlock()
	} else {
		r.setPhaseLocked(st, PhaseConverging, obj.Revision, "")
	}
	return nil
}

// teardownObject withdraws a tombstoned object's state and removes it
// from the store once the platform is clean.
func (r *Reconciler) teardownObject(obj *Object, st *ObjectStatus, obs Observed) error {
	name := obj.Spec.Name
	for key := range obs.Anns {
		if key.Experiment != name {
			continue
		}
		if err := r.action("withdraw", st, func() error {
			return r.act.Withdraw(key.Experiment, key.PoP, key.Prefix, key.Version)
		}); err != nil {
			return fmt.Errorf("withdraw %s: %w", key, err)
		}
		r.store.LogAct("withdraw", key, "")
	}
	if err := r.action("teardown", st, func() error { return r.act.Teardown(name) }); err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	r.tornDown[name] = time.Now()
	if err := r.store.Remove(name); err != nil {
		return err
	}
	maps.DeleteFunc(r.inflightAnn, func(key AnnKey, _ actRecord) bool { return key.Experiment == name })
	maps.DeleteFunc(r.inflightWd, func(key AnnKey, _ time.Time) bool { return key.Experiment == name })
	r.mu.Lock()
	delete(r.ensured, name)
	r.mu.Unlock()
	return nil
}
