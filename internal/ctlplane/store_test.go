package ctlplane

import (
	"errors"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/config"
)

// testSpec is the one-experiment fixture; two experiments alive in the
// same store need testSpecAt, because allocations may not overlap.
func testSpec(name string) Spec { return testSpecAt(name, "184.164.224.0/24") }

func testSpecAt(name, prefix string) Spec {
	return Spec{
		Name:     name,
		Owner:    "researcher@example.edu",
		ASN:      61001,
		Prefixes: []string{prefix},
		Announcements: []Announcement{
			{Prefix: prefix, PoPs: []string{"seattle"}},
		},
	}
}

// testBase is the platform half the store tests derive models over.
func testBase() config.Model {
	return config.Model{
		PoPs: []config.PoPSpec{{Name: "seattle"}, {Name: "amsix"}},
	}
}

func TestStoreCreateIdempotent(t *testing.T) {
	s := NewStore(StoreConfig{})
	obj, created, err := s.Create(testSpec("alpha"))
	if err != nil || !created {
		t.Fatalf("Create = %v, created=%v", err, created)
	}
	if obj.Revision != 1 {
		t.Fatalf("first revision = %d, want 1", obj.Revision)
	}
	// Identical re-create: no-op, same object, no revision bump.
	again, created, err := s.Create(testSpec("alpha"))
	if err != nil || created {
		t.Fatalf("re-Create = %v, created=%v, want nil,false", err, created)
	}
	if again.Revision != obj.Revision {
		t.Fatalf("re-Create bumped revision %d -> %d", obj.Revision, again.Revision)
	}
	// Different spec under the same name: conflict.
	diff := testSpec("alpha")
	diff.Plan = "different"
	if _, _, err := s.Create(diff); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting Create = %v, want ErrConflict", err)
	}
}

func TestStoreUpdateCAS(t *testing.T) {
	s := NewStore(StoreConfig{})
	obj, _, _ := s.Create(testSpec("alpha"))

	next := testSpec("alpha")
	next.Plan = "phase two"
	upd, err := s.Update("alpha", obj.Revision, next)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if upd.Revision <= obj.Revision {
		t.Fatalf("Update revision %d not past %d", upd.Revision, obj.Revision)
	}
	// Stale revision: CAS failure carrying the current object.
	stale := testSpec("alpha")
	stale.Plan = "phase three"
	cur, err := s.Update("alpha", obj.Revision, stale)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("stale Update = %v, want ErrConflict", err)
	}
	if cur.Revision != upd.Revision {
		t.Fatalf("conflict response revision = %d, want current %d", cur.Revision, upd.Revision)
	}
	// Identical spec at the current revision: no-op.
	same, err := s.Update("alpha", upd.Revision, next)
	if err != nil || same.Revision != upd.Revision {
		t.Fatalf("no-op Update = %v rev %d, want nil rev %d", err, same.Revision, upd.Revision)
	}
	// Name mismatch between path and spec.
	if _, err := s.Update("alpha", upd.Revision, testSpec("beta")); err == nil {
		t.Fatal("name-mismatch Update succeeded")
	}
}

func TestStoreDeleteLifecycle(t *testing.T) {
	s := NewStore(StoreConfig{})
	obj, _, _ := s.Create(testSpec("alpha"))

	if _, err := s.Delete("alpha", obj.Revision+99); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale Delete = %v, want ErrConflict", err)
	}
	tomb, err := s.Delete("alpha", obj.Revision)
	if err != nil || !tomb.Deleting {
		t.Fatalf("Delete = %v deleting=%v", err, tomb.Deleting)
	}
	// Idempotent.
	if _, err := s.Delete("alpha", 0); err != nil {
		t.Fatalf("second Delete: %v", err)
	}
	// Tombstoned objects refuse updates and recreates.
	if _, err := s.Update("alpha", tomb.Revision, testSpec("alpha")); !errors.Is(err, ErrDeleting) {
		t.Fatalf("Update of tombstone = %v, want ErrDeleting", err)
	}
	if _, _, err := s.Create(testSpec("alpha")); !errors.Is(err, ErrDeleting) {
		t.Fatalf("Create over tombstone = %v, want ErrDeleting", err)
	}
	if err := s.Remove("alpha"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := s.Get("alpha"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Remove = %v, want ErrNotFound", err)
	}
	// Removing a live object is refused.
	s.Create(testSpec("beta"))
	if err := s.Remove("beta"); err == nil {
		t.Fatal("Remove of live object succeeded")
	}
}

// TestStoreMirrorsConfigRevisions: every commit is a deployable
// revision whose derived model holds exactly the live experiments.
func TestStoreMirrorsConfigRevisions(t *testing.T) {
	s := NewStore(StoreConfig{BaseModel: testBase})
	obj, _, err := s.Create(testSpec("alpha"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	m, err := s.ModelAt(obj.Revision)
	if err != nil {
		t.Fatalf("ModelAt(%d): %v", obj.Revision, err)
	}
	if len(m.PoPs) != 2 {
		t.Fatalf("derived model lost its platform half: %+v", m)
	}
	if len(m.Experiments) != 1 || m.Experiments[0].Name != "alpha" {
		t.Fatalf("derived model experiments = %+v", m.Experiments)
	}
	if !m.Experiments[0].Approved {
		t.Fatal("derived experiment not approved")
	}
	if got, want := m.Experiments[0].Prefixes, []netip.Prefix{netip.MustParsePrefix("184.164.224.0/24")}; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("derived allocation = %v, want %v", got, want)
	}
	if note := s.Notes()[obj.Revision]; note != "created alpha @1" {
		t.Fatalf("revision %d note = %q", obj.Revision, note)
	}
	// Tombstoning takes the experiment out of the next revision, and
	// leaves the earlier one as it was.
	tomb, _ := s.Delete("alpha", obj.Revision)
	if m, _ = s.ModelAt(tomb.Revision); len(m.Experiments) != 0 {
		t.Fatalf("tombstoned experiment still in the model: %+v", m.Experiments)
	}
	if m, _ = s.ModelAt(obj.Revision); len(m.Experiments) != 1 {
		t.Fatalf("revision %d changed after a later commit: %+v", obj.Revision, m.Experiments)
	}
}

// TestStoreRevisionNumbering is the revision log's contract, ported
// from the config store it replaces: commits and rollbacks number
// consecutively, a retained revision never changes, a rollback
// reproduces the old desired state under a new number without touching
// the objects, and an unknown revision is an error.
func TestStoreRevisionNumbering(t *testing.T) {
	s := NewStore(StoreConfig{BaseModel: testBase})
	if s.Revision() != 0 {
		t.Fatal("empty store should report revision 0")
	}
	if _, err := s.ModelAt(1); err == nil {
		t.Fatal("empty store derived a model for revision 1")
	}
	alpha, _, _ := s.Create(testSpec("alpha"))
	beta, _, _ := s.Create(testSpecAt("beta", "184.164.225.0/24"))
	if alpha.Revision != 1 || beta.Revision != 2 {
		t.Fatalf("revisions = %d, %d, want 1, 2", alpha.Revision, beta.Revision)
	}
	tomb, _ := s.Delete("beta", 0)
	if tomb.Revision != 3 {
		t.Fatalf("tombstone revision = %d, want 3", tomb.Revision)
	}
	if m, err := s.ModelAt(2); err != nil || len(m.Experiments) != 2 {
		t.Fatalf("ModelAt(2) = %+v, %v; want alpha and beta", m.Experiments, err)
	}
	newRev, err := s.Rollback(2)
	if err != nil || newRev != 4 || s.Revision() != 4 {
		t.Fatalf("Rollback(2) = %d, %v (store at %d), want revision 4", newRev, err, s.Revision())
	}
	if m, err := s.ModelAt(4); err != nil || len(m.Experiments) != 2 {
		t.Fatalf("rolled-back model = %+v, %v; want alpha and beta again", m.Experiments, err)
	}
	if obj, _ := s.Get("beta"); !obj.Deleting {
		t.Fatal("rollback resurrected the tombstoned object")
	}
	if _, ok := s.Notes()[4]; ok {
		t.Fatal("rollback revision carries a commit note")
	}
	// The commit after a rollback continues from the objects, not from
	// the rolled-back model; a rollback of a rollback still resolves.
	s.Remove("beta")
	if m, _ := s.ModelAt(5); len(m.Experiments) != 1 {
		t.Fatalf("ModelAt(5) = %+v, want alpha only", m.Experiments)
	}
	if again, err := s.Rollback(4); err != nil || again != 6 {
		t.Fatalf("Rollback(4) = %d, %v, want revision 6", again, err)
	} else if m, _ := s.ModelAt(again); len(m.Experiments) != 2 {
		t.Fatalf("rollback of a rollback = %+v, want alpha and beta", m.Experiments)
	}
	for _, rev := range []int64{0, -1, 99} {
		if _, err := s.ModelAt(rev); err == nil {
			t.Errorf("ModelAt(%d) succeeded", rev)
		}
		if _, err := s.Rollback(rev); err == nil {
			t.Errorf("Rollback(%d) succeeded", rev)
		}
	}
	if s.Revision() != 6 {
		t.Fatalf("failed rollbacks moved the revision counter to %d", s.Revision())
	}
}

// TestStoreRejectsOverlappingAllocation: two live experiments may never
// own overlapping address space, and the refusal names both sides.
func TestStoreRejectsOverlappingAllocation(t *testing.T) {
	s := NewStore(StoreConfig{})
	alpha, _, err := s.Create(testSpecAt("alpha", "184.164.224.0/23"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Create(testSpecAt("beta", "184.164.225.0/24"))
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("overlapping Create = %v, want ErrConflict", err)
	}
	for _, want := range []string{"alpha", "beta", "184.164.224.0/23", "184.164.225.0/24"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("overlap error %q does not name %s", err, want)
		}
	}
	if s.Revision() != alpha.Revision {
		t.Fatalf("refused create moved the revision to %d", s.Revision())
	}

	beta, _, err := s.Create(testSpecAt("beta", "184.164.226.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update("beta", beta.Revision, testSpecAt("beta", "184.164.224.0/24")); !errors.Is(err, ErrConflict) {
		t.Fatalf("Update into an overlap = %v, want ErrConflict", err)
	}
	if cur, _ := s.Get("beta"); cur.Revision != beta.Revision || cur.Spec.Prefixes[0] != "184.164.226.0/24" {
		t.Fatalf("refused update changed beta: %+v", cur)
	}
	// An experiment does not conflict with itself.
	if _, err := s.Update("alpha", alpha.Revision, testSpecAt("alpha", "184.164.224.0/24")); err != nil {
		t.Fatalf("Update within own allocation: %v", err)
	}

	// A tombstone no longer owns its allocation: the create refused
	// above goes through once alpha is being torn down, and alpha can
	// then only come back somewhere else.
	if _, err := s.Delete("alpha", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Create(testSpecAt("gamma", "184.164.224.0/24")); err != nil {
		t.Fatalf("Create over a tombstone's allocation: %v", err)
	}
	s.Remove("alpha")
	if _, _, err := s.Create(testSpecAt("alpha", "184.164.224.0/23")); !errors.Is(err, ErrConflict) {
		t.Fatalf("re-Create over gamma's allocation = %v, want ErrConflict", err)
	}
	if _, _, err := s.Create(testSpecAt("alpha", "184.164.228.0/23")); err != nil {
		t.Fatalf("re-Create after teardown: %v", err)
	}
}

func TestStoreChangeNotifications(t *testing.T) {
	s := NewStore(StoreConfig{})
	var changes []Change
	s.OnChange(func(c Change) { changes = append(changes, c) })
	kicks := 0
	s.OnCommit(func() { kicks++ })

	obj, _, _ := s.Create(testSpec("alpha"))
	next := testSpec("alpha")
	next.Plan = "v2"
	upd, _ := s.Update("alpha", obj.Revision, next)
	s.Delete("alpha", upd.Revision)
	s.Remove("alpha")

	want := []ChangeKind{ChangeCreated, ChangeUpdated, ChangeDeleted, ChangeRemoved}
	if len(changes) != len(want) {
		t.Fatalf("got %d changes, want %d: %+v", len(changes), len(want), changes)
	}
	for i, k := range want {
		if changes[i].Kind != k || changes[i].Name != "alpha" {
			t.Fatalf("change %d = %+v, want kind %s", i, changes[i], k)
		}
	}
	if kicks != len(want) {
		t.Fatalf("onCommit fired %d times, want %d", kicks, len(want))
	}
}
