package ctlplane

import (
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/policy"
)

// Store errors, mapped to HTTP statuses by the API layer.
var (
	// ErrNotFound: no object with that name.
	ErrNotFound = errors.New("ctlplane: no such experiment")
	// ErrConflict: the caller's revision is stale (CAS failure), a create
	// collided with a different existing spec, or the spec's allocation
	// overlaps another experiment's.
	ErrConflict = errors.New("ctlplane: revision conflict")
	// ErrDeleting: the object is being torn down and cannot be updated.
	ErrDeleting = errors.New("ctlplane: experiment is being deleted")
	// ErrStoreFailed: a durable-log write failed; the store fails closed
	// (read-only) until the daemon restarts and recovers from disk.
	ErrStoreFailed = errors.New("ctlplane: desired-state log write failed; store is read-only until restart")
)

// Object is one stored experiment: its desired spec plus the
// versioning metadata the CAS protocol needs.
type Object struct {
	Spec Spec `json:"spec"`
	// Revision is the store revision of the commit that last changed
	// this object. The counter is store-global, so revisions totally
	// order changes across objects, and it is the deploy revision:
	// canarying an object's revision rolls out the desired state as of
	// that commit.
	Revision int64 `json:"revision"`
	// CreatedAt / UpdatedAt are wall-clock bookkeeping.
	CreatedAt time.Time `json:"created_at"`
	UpdatedAt time.Time `json:"updated_at"`
	// Deleting marks a tombstone: the reconciler is withdrawing the
	// experiment's state; the object disappears when teardown finishes.
	Deleting bool `json:"deleting,omitempty"`

	// The spec compiled once, when the object enters the store (commit
	// or replay). Stored objects are immutable, so copies share these;
	// the reconciler and the actuator read them instead of re-deriving
	// them from Spec on every pass.
	alloc []netip.Prefix      // Spec.Prefixes parsed
	atoms []CompiledAnn       // Spec.Compile()
	pops  []string            // Spec.SessionPoPs()
	caps  policy.Capabilities // CapsFor(Spec)
}

// compile fills the compiled fields from the spec.
func (o *Object) compile() error {
	o.alloc = make([]netip.Prefix, 0, len(o.Spec.Prefixes))
	for _, raw := range o.Spec.Prefixes {
		p, err := netip.ParsePrefix(raw)
		if err != nil {
			return fmt.Errorf("ctlplane: experiment %s: bad prefix %q: %v", o.Spec.Name, raw, err)
		}
		o.alloc = append(o.alloc, p)
	}
	atoms, err := o.Spec.compile()
	if err != nil {
		return err
	}
	o.atoms, o.pops, o.caps = atoms, o.Spec.SessionPoPs(), CapsFor(o.Spec)
	return nil
}

// Allocation is the spec's prefixes, parsed. Read-only.
func (o *Object) Allocation() []netip.Prefix { return o.alloc }

// Caps is the capability grant the spec needs (CapsFor).
func (o *Object) Caps() policy.Capabilities { return o.caps }

// ChangeKind classifies a store commit for watchers.
type ChangeKind string

// Change kinds.
const (
	ChangeCreated ChangeKind = "created"
	ChangeUpdated ChangeKind = "updated"
	ChangeDeleted ChangeKind = "deleted" // tombstoned; teardown pending
	ChangeRemoved ChangeKind = "removed" // teardown finished, object gone
)

// Change is one committed store mutation.
type Change struct {
	Kind     ChangeKind `json:"kind"`
	Name     string     `json:"name"`
	Revision int64      `json:"revision"`
}

// revisionWindow is how many revisions stay deployable. It equals the
// WAL's default compaction interval, so a snapshot never carries more
// history than one log's worth, and at a pointer plus ~350 snapshot
// bytes per revision it keeps memory and snapshot size O(objects +
// window) however long the daemon runs. A rollout is canaried, promoted
// or rolled back within hours of its commit, not a thousand commits
// later; no caller needs another value, so it is not configurable.
const revisionWindow = 1024

// revision is one entry of the revision log. A commit's entry is its
// delta: the object as committed — the very *Object the store serves,
// so retaining a revision costs a pointer, not a copy — or nil when the
// commit took the experiment out of the desired set (tombstone,
// removal). A rollback's entry names the older revision whose desired
// state it reproduces; it changes nothing for the revisions after it.
type revision struct {
	Kind       ChangeKind `json:"kind,omitempty"`
	Name       string     `json:"name,omitempty"`
	Object     *Object    `json:"object,omitempty"`
	RollbackOf int64      `json:"rollback_of,omitempty"`
}

// fold applies the revision's delta to an experiment set.
func (r revision) fold(set map[string]*Object) {
	switch {
	case r.RollbackOf != 0:
	case r.Object != nil:
		set[r.Name] = r.Object
	default:
		delete(set, r.Name)
	}
}

// Store is the versioned desired-state database behind the API — the
// one copy of §5's central model: named experiment objects with
// optimistic concurrency, a store-global revision counter that numbers
// every commit and rollback, the last revisionWindow revisions kept as
// deltas from which ModelAt derives a config.Model on demand, and the
// per-PoP map of which revision each PoP runs. Stored objects are
// copy-on-write: a commit installs a fresh *Object and never modifies
// one already stored, which is what lets revisions and readers share
// them.
type Store struct {
	mu      sync.Mutex
	objects map[string]*Object
	nextRev int64

	// window is the retained tail of the revision log, oldest first:
	// window[i] is revision nextRev-len(window)+1+i. settled is the
	// experiment set as of the revision before window[0] — what the
	// entries that left the window folded into.
	window  []revision
	settled map[string]*Object
	// base supplies the platform half of a derived model (platform ASN,
	// PoP specs, experiments approved outside the control plane); nil
	// derives experiments only. Never called under mu.
	base func() config.Model
	// deployed is the revision each PoP runs.
	deployed map[string]int64
	// acts holds the last-known actuation fingerprints (LogAct).
	acts map[AnnKey]string

	// onCommit pokes the reconciler (set once, before use).
	onCommit func()
	// onChange publishes store transitions to the watch hub.
	onChange func(Change)
	// notify is what a commit leaves for unlock to call.
	notify func()

	// wal, when set, makes every commit durable before it is
	// acknowledged; walErr fails the store closed after a log-write
	// failure (the raced commit becomes an orphan that the recovery
	// reconciliation pass tears down on restart).
	wal    *WAL
	walErr error
	// crashHook, when set, fires at the seeded chaos injection points
	// around the WAL write ("pre-wal-write", "post-wal-pre-actuate").
	// Test-only; nil in production.
	crashHook func(point string)

	mCommits  metric
	mObjects  gaugeMetric
	mConflict metric
}

// StoreConfig configures a Store.
type StoreConfig struct {
	// BaseModel supplies the PoPs (and any experiments approved outside
	// the store) for derived models.
	BaseModel func() config.Model
	// CrashHook fires at the seeded crash-injection points around the
	// durable write. Test-only; leave nil in production.
	CrashHook func(point string)
}

// NewStore creates an empty, in-memory desired-state store. Use
// RecoverStore for one backed by a durable state directory.
func NewStore(cfg StoreConfig) *Store {
	s := &Store{
		objects:   make(map[string]*Object),
		settled:   make(map[string]*Object),
		base:      cfg.BaseModel,
		deployed:  make(map[string]int64),
		acts:      make(map[AnnKey]string),
		crashHook: cfg.CrashHook,
	}
	s.mCommits = counter("ctlplane_store_commits_total")
	s.mObjects = gauge("ctlplane_objects")
	s.mConflict = counter("ctlplane_store_conflicts_total")
	return s
}

// RecoverStore opens the durable desired-state log in dir, replays
// snapshot + WAL, and returns a store resuming exactly where the last
// process stopped: objects with their revisions, the retained revision
// log, the deployed map, and the actuation fingerprints (for
// budget-free re-adoption). The returned state summarises what was
// recovered; it is nil when the directory held no prior state.
func RecoverStore(cfg StoreConfig, dir string) (*Store, *WAL, *RecoveredState, error) {
	wal, snap, recs, err := openWAL(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	s := NewStore(cfg)
	var rec *RecoveredState
	if snap != nil || len(recs) > 0 {
		if wal.seq, err = s.replay(snap, recs); err != nil {
			wal.Close()
			return nil, nil, nil, err
		}
		rec = &RecoveredState{
			Seq: wal.seq, NextRev: s.nextRev, Objects: s.List(),
			Deployed: s.Deployed(), Acts: maps.Clone(s.acts),
		}
		s.mObjects.Set(int64(len(s.objects)))
	}
	s.wal = wal
	wal.snapshot = s.walSnapshotLocked
	return s, wal, rec, nil
}

// Close closes the durable log, if any.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// failedLocked reports the fail-closed state after a WAL write error.
func (s *Store) failedLocked() error {
	if s.walErr == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrStoreFailed, s.walErr)
}

// OnCommit registers the reconciler wake-up hook.
func (s *Store) OnCommit(fn func()) { s.onCommit = fn }

// OnChange registers the watch-hub publication hook.
func (s *Store) OnChange(fn func(Change)) { s.onChange = fn }

// applyCommitLocked is the one place a commit changes store state; the
// live path and WAL replay both go through it. c.Object belongs to the
// store from here on.
func (s *Store) applyCommitLocked(c walCommit) {
	s.nextRev = c.Revision
	rev := revision{Kind: c.Kind, Name: c.Name}
	if c.Kind == ChangeRemoved {
		delete(s.objects, c.Name)
		maps.DeleteFunc(s.acts, func(key AnnKey, _ string) bool { return key.Experiment == c.Name })
	} else {
		s.objects[c.Name] = c.Object
		if !c.Object.Deleting {
			rev.Object = c.Object
		}
	}
	s.pushLocked(rev)
}

// applyDeployLocked is applyCommitLocked's counterpart for deploy
// records: a rollback appends a revision aliasing an older one; a canary
// or promote moves the PoPs it reached to its revision.
func (s *Store) applyDeployLocked(d walDeploy) error {
	if d.Verb == "rollback" {
		if _, err := s.commitIndexLocked(d.Revision); err != nil {
			return err
		}
		s.nextRev = d.NewRevision
		s.pushLocked(revision{RollbackOf: d.Revision})
	}
	for _, pop := range d.PoPs {
		s.deployed[pop] = d.Revision
	}
	return nil
}

// applyActLocked records or forgets one actuation fingerprint.
func (s *Store) applyActLocked(a walAct) {
	if a.Op == "announce" {
		s.acts[a.Key] = a.Fp
	} else {
		delete(s.acts, a.Key)
	}
}

// pushLocked appends a revision to the log and folds the one that
// leaves the window into the settled set.
func (s *Store) pushLocked(r revision) {
	s.window = append(s.window, r)
	if len(s.window) > revisionWindow {
		s.window[0].fold(s.settled)
		s.window[0] = revision{} // the backing array outlives the reslice
		s.window = s.window[1:]
	}
}

// logLocked appends one record to the durable log, if there is one,
// and compacts the log when it is due; a failure fails the store closed.
func (s *Store) logLocked(typ byte, body any) {
	if s.wal == nil || s.walErr != nil {
		return
	}
	if s.walErr = s.wal.append(typ, body); s.walErr == nil {
		s.walErr = s.wal.compactIfDue()
	}
}

// unlock releases the store lock, then fires the notifications of the
// commit made under it, if there was one. It must be deferred directly.
func (s *Store) unlock() {
	// A panic under the lock is the seeded crash hook standing in for the
	// process dying mid-commit, with memory possibly ahead of the log. A
	// dead process releases nothing, so neither does this: the store
	// stays locked and whatever outlives the "crash" (the old reconciler,
	// in the crash soak) sees no more of it.
	if r := recover(); r != nil {
		panic(r)
	}
	notify := s.notify
	s.notify = nil
	s.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// commitLocked finalizes a mutation: numbers it, applies it, appends
// the durable commit record (fsynced before the commit is
// acknowledged), and leaves the notifications for unlock to fire. obj
// is the object as it stands after the commit (nil for a removal).
func (s *Store) commitLocked(kind ChangeKind, name string, obj *Object) {
	c := walCommit{Kind: kind, Name: name, Revision: s.nextRev + 1, Object: obj}
	if obj != nil {
		obj.Revision = c.Revision
		obj.UpdatedAt = time.Now()
	}
	s.applyCommitLocked(c)
	if s.wal != nil {
		if s.crashHook != nil {
			s.crashHook("pre-wal-write")
		}
		// On failure this commit raced the log (its actuation will surface
		// as an orphan after restart) and no further mutations are
		// accepted.
		s.logLocked(walTypeCommit, c)
		if s.crashHook != nil {
			s.crashHook("post-wal-pre-actuate")
		}
	}
	s.mCommits.Inc()
	s.mObjects.Set(int64(len(s.objects)))
	change := Change{Kind: kind, Name: name, Revision: c.Revision}
	onCommit, onChange := s.onCommit, s.onChange
	s.notify = func() {
		if onChange != nil {
			onChange(change)
		}
		if onCommit != nil {
			onCommit()
		}
	}
}

// currentLocked returns the named object of a store that still accepts
// mutations.
func (s *Store) currentLocked(name string) (*Object, error) {
	if err := s.failedLocked(); err != nil {
		return nil, err
	}
	obj, ok := s.objects[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return obj, nil
}

// staleLocked is the CAS failure: the caller's revision is not cur's.
func (s *Store) staleLocked(cur *Object, rev int64) error {
	s.mConflict.Inc()
	return fmt.Errorf("%w: experiment %s is at revision %d, not %d",
		ErrConflict, cur.Spec.Name, cur.Revision, rev)
}

// overlapLocked refuses an allocation that overlaps a live
// (non-tombstoned) experiment's: §3.3's prefix-ownership enforcement
// assumes allocations are disjoint, and a model that breaks the rule
// fails Validate only at deploy time, where the commit can no longer be
// refused.
func (s *Store) overlapLocked(obj *Object) error {
	for name, other := range s.objects {
		if name == obj.Spec.Name || other.Deleting {
			continue
		}
		for _, p := range obj.alloc {
			for _, q := range other.alloc {
				if p.Overlaps(q) {
					s.mConflict.Inc()
					return fmt.Errorf("%w: experiment %s: prefix %s overlaps %s, allocated to experiment %s",
						ErrConflict, obj.Spec.Name, p, q, name)
				}
			}
		}
	}
	return nil
}

// Create stores a new experiment. Re-creating an identical spec is an
// idempotent no-op returning the existing object (created=false); a
// name collision with a different spec, or an allocation overlapping
// another experiment's, is ErrConflict.
func (s *Store) Create(spec Spec) (Object, bool, error) {
	if err := spec.Validate(); err != nil {
		return Object{}, false, err
	}
	obj := &Object{Spec: spec.Clone(), CreatedAt: time.Now()}
	if err := obj.compile(); err != nil {
		return Object{}, false, err
	}
	s.mu.Lock()
	defer s.unlock()
	if err := s.failedLocked(); err != nil {
		return Object{}, false, err
	}
	if existing, ok := s.objects[spec.Name]; ok {
		switch {
		case existing.Deleting:
			return Object{}, false, fmt.Errorf("%w (recreate after teardown finishes)", ErrDeleting)
		case existing.Spec.Equal(spec):
			return *existing, false, nil
		}
		s.mConflict.Inc()
		return Object{}, false, fmt.Errorf("%w: experiment %s exists at revision %d with a different spec",
			ErrConflict, spec.Name, existing.Revision)
	}
	if err := s.overlapLocked(obj); err != nil {
		return Object{}, false, err
	}
	s.commitLocked(ChangeCreated, spec.Name, obj)
	return *obj, true, nil
}

// Update replaces an object's spec, gated on the caller's revision
// (CAS). An identical spec at the current revision is a no-op. The
// spec's name must match the stored object.
func (s *Store) Update(name string, rev int64, spec Spec) (Object, error) {
	if err := spec.Validate(); err != nil {
		return Object{}, err
	}
	if spec.Name != name {
		return Object{}, fmt.Errorf("ctlplane: spec name %q does not match object %q", spec.Name, name)
	}
	s.mu.Lock()
	defer s.unlock()
	cur, err := s.currentLocked(name)
	switch {
	case err != nil:
		return Object{}, err
	case cur.Deleting:
		return Object{}, fmt.Errorf("%w: %s", ErrDeleting, name)
	case cur.Revision != rev:
		return *cur, s.staleLocked(cur, rev)
	case cur.Spec.Equal(spec):
		return *cur, nil
	}
	next := *cur
	next.Spec = spec.Clone()
	if err = next.compile(); err == nil {
		err = s.overlapLocked(&next)
	}
	if err != nil {
		return Object{}, err
	}
	s.commitLocked(ChangeUpdated, name, &next)
	return next, nil
}

// Delete tombstones an object for teardown. rev 0 deletes
// unconditionally; otherwise the revision is CAS-checked. The object
// remains visible (Deleting=true) until the reconciler calls Remove.
func (s *Store) Delete(name string, rev int64) (Object, error) {
	s.mu.Lock()
	defer s.unlock()
	cur, err := s.currentLocked(name)
	switch {
	case err != nil:
		return Object{}, err
	case cur.Deleting:
		return *cur, nil // idempotent
	case rev != 0 && cur.Revision != rev:
		return *cur, s.staleLocked(cur, rev)
	}
	next := *cur
	next.Deleting = true
	s.commitLocked(ChangeDeleted, name, &next)
	return next, nil
}

// Remove drops a tombstoned object once the reconciler has finished
// tearing it down. Removing a live or unknown object is an error — the
// reconciler only calls this after Delete.
func (s *Store) Remove(name string) error {
	s.mu.Lock()
	defer s.unlock()
	obj, err := s.currentLocked(name)
	if err != nil {
		return err
	}
	if !obj.Deleting {
		return fmt.Errorf("ctlplane: experiment %s is not marked for deletion", name)
	}
	s.commitLocked(ChangeRemoved, name, nil)
	return nil
}

// Get returns one object.
func (s *Store) Get(name string) (Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[name]
	if !ok {
		return Object{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return *obj, nil
}

// List returns every object sorted by name.
func (s *Store) List() []Object {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedObjects(s.objects)
}

// LogAct records one successful actuation in the durable log: op is
// "announce" (fp is the fingerprint installed) or "withdraw". The
// reconciler calls it after each actuator mutation so a restarted
// daemon knows exactly what was sent and can re-adopt matching
// installs without re-announcing (budget-free recovery). Best-effort:
// an append failure fails the store closed like any other WAL error.
func (s *Store) LogAct(op string, key AnnKey, fp string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := walAct{Op: op, Key: key, Fp: fp}
	s.applyActLocked(a)
	s.logLocked(walTypeAct, a)
}

// Revision returns the store's global revision counter (the revision of
// the most recent commit or rollback).
func (s *Store) Revision() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextRev
}

// oldestLocked is the oldest retained revision.
func (s *Store) oldestLocked() int64 { return s.nextRev - int64(len(s.window)) + 1 }

// commitIndexLocked returns the window index of the commit whose
// desired state revision rev has — rev itself, or what it rolls back to.
func (s *Store) commitIndexLocked(rev int64) (int, error) {
	for {
		if rev < 1 || rev > s.nextRev {
			return 0, fmt.Errorf("ctlplane: no revision %d (latest is %d)", rev, s.nextRev)
		}
		oldest := s.oldestLocked()
		if rev < oldest {
			return 0, fmt.Errorf("ctlplane: revision %d is no longer retained (oldest retained revision is %d)", rev, oldest)
		}
		r := s.window[rev-oldest]
		if r.RollbackOf == 0 {
			return int(rev - oldest), nil
		}
		rev = r.RollbackOf
	}
}

// ModelAt derives the desired-state model as of a retained revision:
// the experiment half by folding the revision log's deltas over the
// settled set, the platform half from BaseModel as it reads now.
func (s *Store) ModelAt(rev int64) (config.Model, error) {
	s.mu.Lock()
	i, err := s.commitIndexLocked(rev)
	if err != nil {
		s.mu.Unlock()
		return config.Model{}, err
	}
	set := maps.Clone(s.settled)
	for _, r := range s.window[:i+1] {
		r.fold(set)
	}
	s.mu.Unlock()

	var m config.Model
	if s.base != nil {
		m = s.base()
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		obj := set[name]
		m.Experiments = append(m.Experiments, config.ExperimentSpec{
			Name:     name,
			Owner:    obj.Spec.Owner,
			ASNs:     []uint32{obj.Spec.ASN},
			Prefixes: append([]netip.Prefix(nil), obj.alloc...),
			Caps:     obj.caps,
			Approved: true,
		})
	}
	return m, nil
}

// Notes returns the commit note of every retained commit revision,
// "created foo @3"-style, so the revision log reads like a change
// history. Rollback revisions carry none.
func (s *Store) Notes() map[int64]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int64]string, len(s.window))
	oldest := s.oldestLocked()
	for i, r := range s.window {
		if r.RollbackOf == 0 {
			rev := oldest + int64(i)
			out[rev] = fmt.Sprintf("%s %s @%d", r.Kind, r.Name, rev)
		}
	}
	return out
}

// Deployed returns a copy of the revision each PoP runs.
func (s *Store) Deployed() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.deployed)
}

// Canary applies revision rev to the named PoPs only (§5: "we canary
// the new configuration on a subset of our production fleet"). apply
// pushes the derived model to one PoP.
func (s *Store) Canary(rev int64, pops []string, apply func(pop string, m config.Model) error) error {
	return s.rollout("canary", rev, pops, apply)
}

// Promote applies revision rev to every PoP of the model that is not
// already running it.
func (s *Store) Promote(rev int64, apply func(pop string, m config.Model) error) error {
	return s.rollout("promote", rev, nil, apply)
}

// rollout derives and validates the model, applies it PoP by PoP
// outside the store lock, and then — whether or not every apply
// succeeded — moves the PoPs that took it in the deployed map and writes
// the verb's one deploy record, so a partial rollout is as durable as a
// complete one.
func (s *Store) rollout(verb string, rev int64, pops []string, apply func(pop string, m config.Model) error) error {
	m, err := s.ModelAt(rev)
	if err == nil {
		err = m.Validate()
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	err = s.failedLocked()
	if verb == "promote" {
		for _, pop := range m.PoPs {
			if s.deployed[pop.Name] != rev {
				pops = append(pops, pop.Name)
			}
		}
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	d := walDeploy{Verb: verb, Revision: rev}
	for _, pop := range pops {
		if err = apply(pop, m); err != nil {
			err = fmt.Errorf("ctlplane: %s %s: %w", verb, pop, err)
			break
		}
		d.PoPs = append(d.PoPs, pop)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.applyDeployLocked(d) // only a rollback can be refused
	s.logLocked(walTypeDeploy, d)
	return err
}

// Rollback appends a revision reproducing retained revision rev and
// returns its number; promoting that deploys the old desired state. It
// does not change the stored objects.
func (s *Store) Rollback(rev int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.failedLocked(); err != nil {
		return 0, err
	}
	d := walDeploy{Verb: "rollback", Revision: rev, NewRevision: s.nextRev + 1}
	if err := s.applyDeployLocked(d); err != nil {
		return 0, err
	}
	s.logLocked(walTypeDeploy, d)
	return d.NewRevision, nil
}

// walSnapshotLocked builds the compaction checkpoint. Called by the WAL
// with s.mu already held (compaction runs inside logLocked).
func (s *Store) walSnapshotLocked() walSnapshot {
	snap := walSnapshot{
		NextRev: s.nextRev, Objects: sortedObjects(s.objects),
		Settled: sortedObjects(s.settled), Window: s.window,
		Deployed: s.deployed,
	}
	keys := make([]AnnKey, 0, len(s.acts))
	for key := range s.acts {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, key := range keys {
		snap.Acts = append(snap.Acts, walAct{Op: "announce", Key: key, Fp: s.acts[key]})
	}
	return snap
}

// sortedObjects copies a set's objects out, sorted by name.
func sortedObjects(set map[string]*Object) []Object {
	out := make([]Object, 0, len(set))
	for _, obj := range set {
		out = append(out, *obj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Name < out[j].Spec.Name })
	return out
}
