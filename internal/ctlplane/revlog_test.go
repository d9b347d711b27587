package ctlplane

import (
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
)

// mirrorReference is the algorithm the revision log replaced, kept here
// as the oracle: after every commit render the whole model from the
// live objects and remember it under the next number, with a "kind name
// @rev" note; a rollback re-stores an older model under a new number,
// without a note.
type mirrorReference struct {
	models []config.Model // models[i] is revision i+1
	notes  map[int64]string
}

func (ref *mirrorReference) commit(s *Store, kind ChangeKind, name string) {
	m := testBase()
	for _, obj := range s.List() { // sorted by name
		if obj.Deleting {
			continue
		}
		var prefixes []netip.Prefix
		for _, raw := range obj.Spec.Prefixes {
			prefixes = append(prefixes, netip.MustParsePrefix(raw))
		}
		m.Experiments = append(m.Experiments, config.ExperimentSpec{
			Name: obj.Spec.Name, Owner: obj.Spec.Owner, ASNs: []uint32{obj.Spec.ASN},
			Prefixes: prefixes, Caps: CapsFor(obj.Spec), Approved: true,
		})
	}
	ref.models = append(ref.models, m)
	rev := int64(len(ref.models))
	ref.notes[rev] = fmt.Sprintf("%s %s @%d", kind, name, rev)
}

func (ref *mirrorReference) rollback(rev int64) {
	ref.models = append(ref.models, ref.models[rev-1])
}

// check compares every revision the store retains with the reference.
func (ref *mirrorReference) check(t *testing.T, s *Store, when string) {
	t.Helper()
	if got, want := s.Revision(), int64(len(ref.models)); got != want {
		t.Fatalf("%s: store at revision %d, reference at %d", when, got, want)
	}
	if got := s.Notes(); !reflect.DeepEqual(got, ref.notes) {
		t.Fatalf("%s: notes differ:\n got %v\nwant %v", when, got, ref.notes)
	}
	for i, want := range ref.models {
		got, err := s.ModelAt(int64(i + 1))
		if err != nil {
			t.Fatalf("%s: ModelAt(%d): %v", when, i+1, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: revision %d differs:\n got %+v\nwant %+v", when, i+1, got.Experiments, want.Experiments)
		}
	}
}

// TestRevisionLogMatchesFullMirror drives a seeded random sequence of
// creates, updates, tombstones, removals and rollbacks and checks that
// for every revision the derived model and note are what the full
// mirror recorded — live, and after Close and RecoverStore, with the
// log intact and with it compacted many times over.
func TestRevisionLogMatchesFullMirror(t *testing.T) {
	for _, compactEvery := range []int{defaultCompactEvery, 23} {
		t.Run(fmt.Sprintf("compact-every-%d", compactEvery), func(t *testing.T) {
			dir := t.TempDir()
			s, w, _ := recoverTestStore(t, dir)
			w.CompactEvery = compactEvery
			ref := &mirrorReference{notes: make(map[int64]string)}
			rng := rand.New(rand.NewSource(20190101))

			const names, ops = 12, 400
			op := 0
			spec := func(i int) Spec {
				sp := testSpecAt(fmt.Sprintf("exp-%02d", i), fmt.Sprintf("184.164.%d.0/24", 224+i))
				sp.Owner = fmt.Sprintf("owner-%d", op) // never an identical (no-op) update
				if rng.Intn(2) == 0 {                  // moves the derived capability grant
					sp.Announcements[0].Poison = []uint32{64512, 64513}[:1+rng.Intn(2)]
				}
				return sp
			}
			for ; op < ops; op++ {
				i := rng.Intn(names)
				name := fmt.Sprintf("exp-%02d", i)
				cur, err := s.Get(name)
				switch {
				case rng.Intn(10) == 0 && s.Revision() > 0:
					target := 1 + rng.Int63n(s.Revision())
					if _, err := s.Rollback(target); err != nil {
						t.Fatalf("op %d: Rollback(%d): %v", op, target, err)
					}
					ref.rollback(target)
				case err != nil:
					if _, _, err := s.Create(spec(i)); err != nil {
						t.Fatalf("op %d: Create %s: %v", op, name, err)
					}
					ref.commit(s, ChangeCreated, name)
				case cur.Deleting:
					if err := s.Remove(name); err != nil {
						t.Fatalf("op %d: Remove %s: %v", op, name, err)
					}
					ref.commit(s, ChangeRemoved, name)
				case rng.Intn(3) == 0:
					if _, err := s.Delete(name, cur.Revision); err != nil {
						t.Fatalf("op %d: Delete %s: %v", op, name, err)
					}
					ref.commit(s, ChangeDeleted, name)
				default:
					if _, err := s.Update(name, cur.Revision, spec(i)); err != nil {
						t.Fatalf("op %d: Update %s: %v", op, name, err)
					}
					ref.commit(s, ChangeUpdated, name)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, snapFileName)); (err == nil) != (compactEvery < ops) {
				t.Fatalf("snapshot present = %v with CompactEvery=%d over %d ops", err == nil, compactEvery, ops)
			}
			ref.check(t, s, "live")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, _, _ := recoverTestStore(t, dir)
			defer s2.Close()
			ref.check(t, s2, "recovered")
		})
	}
}

// TestRevisionWindowBound commits three windows' worth of updates over a
// constant set of objects, through a restart: the store retains no more
// than a window of deltas, what it retains is still exact, one revision
// older is refused by name, and the snapshot stops growing.
func TestRevisionWindowBound(t *testing.T) {
	dir := t.TempDir()
	s, w, _ := recoverTestStore(t, dir)
	const objects = 16
	// Commit i (from 1) writes object (i-1)%objects with owner-i, so the
	// model at revision r is known in closed form.
	wantAt := func(r int64) []string {
		var owners []string
		for k := int64(0); k < objects && k < r; k++ {
			last := r - (r-1-k)%objects
			owners = append(owners, fmt.Sprintf("exp-%02d=owner-%d", k, last))
		}
		return owners
	}
	ownersAt := func(s *Store, r int64) []string {
		m, err := s.ModelAt(r)
		if err != nil {
			t.Fatalf("ModelAt(%d): %v", r, err)
		}
		var owners []string
		for _, e := range m.Experiments {
			owners = append(owners, e.Name+"="+e.Owner)
		}
		sort.Strings(owners)
		return owners
	}
	var snapshots []int64
	revs := make([]int64, objects)
	for i := int64(1); i <= 3*revisionWindow; i++ {
		k := int((i - 1) % objects)
		spec := testSpecAt(fmt.Sprintf("exp-%02d", k), fmt.Sprintf("184.164.%d.0/24", 224+k))
		spec.Owner = fmt.Sprintf("owner-%d", i)
		var obj Object
		var err error
		if i <= objects {
			obj, _, err = s.Create(spec)
		} else {
			obj, err = s.Update(spec.Name, revs[k], spec)
		}
		if err != nil || obj.Revision != i {
			t.Fatalf("commit %d = revision %d, %v", i, obj.Revision, err)
		}
		revs[k] = obj.Revision
		if w.appended == 0 { // this commit compacted
			fi, err := os.Stat(filepath.Join(dir, snapFileName))
			if err != nil {
				t.Fatal(err)
			}
			snapshots = append(snapshots, fi.Size())
		}
		if i == revisionWindow+revisionWindow/2 { // restart mid-way, window full
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s, w, _ = recoverTestStore(t, dir)
			defer s.Close()
		}
	}
	if len(s.window) > revisionWindow || len(s.settled) != objects {
		t.Fatalf("retained %d deltas over %d settled objects, want at most %d over %d",
			len(s.window), len(s.settled), revisionWindow, objects)
	}
	latest := s.Revision()
	oldest := latest - revisionWindow + 1
	for _, r := range []int64{oldest, oldest + 1, latest - objects, latest} {
		if got, want := ownersAt(s, r), wantAt(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("revision %d = %v, want %v", r, got, want)
		}
	}
	_, err := s.ModelAt(oldest - 1)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("oldest retained revision is %d", oldest)) {
		t.Fatalf("ModelAt(%d) = %v, want an error naming the oldest retained revision %d", oldest-1, err, oldest)
	}
	if _, err := s.Rollback(oldest - 1); err == nil {
		t.Fatal("rolled back to a revision that is no longer retained")
	}
	if len(s.Notes()) != revisionWindow {
		t.Fatalf("%d notes, want one per retained revision (%d)", len(s.Notes()), revisionWindow)
	}
	if n := len(snapshots); n < 3 || float64(snapshots[n-1]) > 1.1*float64(snapshots[n-2]) {
		t.Fatalf("snapshot sizes %v: want at least three compactions and the last within 1.1x of the one before", snapshots)
	}
}
