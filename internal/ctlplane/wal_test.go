package ctlplane

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
)

// recoverTestStore opens a durable store in dir.
func recoverTestStore(t *testing.T, dir string) (*Store, *WAL, *RecoveredState) {
	t.Helper()
	s, w, rec, err := RecoverStore(StoreConfig{BaseModel: testBase}, dir)
	if err != nil {
		t.Fatalf("RecoverStore: %v", err)
	}
	return s, w, rec
}

// revisionLog derives the model of every retained revision.
func revisionLog(t *testing.T, s *Store) map[int64]config.Model {
	t.Helper()
	out := make(map[int64]config.Model)
	for rev := s.Revision(); rev >= 1; rev-- {
		m, err := s.ModelAt(rev)
		if err != nil {
			break // older than the window
		}
		out[rev] = m
	}
	return out
}

func actKey(exp, pop, prefix string, version uint32) AnnKey {
	return AnnKey{Experiment: exp, PoP: pop, Prefix: netip.MustParsePrefix(prefix), Version: version}
}

func TestWALRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, _, rec := recoverTestStore(t, dir)
	if rec != nil {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}

	alpha, _, err := s.Create(testSpec("alpha"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	next := testSpec("alpha")
	next.Plan = "phase two"
	alpha2, err := s.Update("alpha", alpha.Revision, next)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if _, _, err := s.Create(testSpecAt("beta", "184.164.226.0/24")); err != nil {
		t.Fatalf("Create beta: %v", err)
	}
	if _, err := s.Delete("beta", 0); err != nil {
		t.Fatalf("Delete beta: %v", err)
	}
	if err := s.Remove("beta"); err != nil {
		t.Fatalf("Remove beta: %v", err)
	}
	keep := actKey("alpha", "seattle", "184.164.224.0/24", 1)
	drop := actKey("alpha", "seattle", "184.164.225.0/24", 2)
	s.LogAct("announce", keep, "fp-keep")
	s.LogAct("announce", drop, "fp-drop")
	s.LogAct("withdraw", drop, "")
	applied := func(string, config.Model) error { return nil }
	if err := s.Canary(3, []string{"seattle"}, applied); err != nil {
		t.Fatalf("Canary: %v", err)
	}
	if err := s.Promote(3, applied); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if _, err := s.Rollback(2); err != nil {
		t.Fatalf("Rollback: %v", err)
	}

	wantRev := s.Revision()
	wantNotes := s.Notes()
	wantModels := revisionLog(t, s)
	if len(wantNotes) != 5 || len(wantModels) != 6 {
		t.Fatalf("revision log before restart: %d notes, %d models, want 5 commits + 1 rollback", len(wantNotes), len(wantModels))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, _, rec2 := recoverTestStore(t, dir)
	defer s2.Close()
	if rec2 == nil {
		t.Fatal("no recovered state after restart")
	}
	if s2.Revision() != wantRev {
		t.Fatalf("recovered revision = %d, want %d", s2.Revision(), wantRev)
	}
	objs := s2.List()
	if len(objs) != 1 || objs[0].Spec.Name != "alpha" {
		t.Fatalf("recovered objects = %+v, want just alpha", objs)
	}
	if objs[0].Revision != alpha2.Revision || objs[0].Spec.Plan != "phase two" {
		t.Fatalf("recovered alpha = rev %d plan %q, want rev %d plan \"phase two\"",
			objs[0].Revision, objs[0].Spec.Plan, alpha2.Revision)
	}
	if got := rec2.Acts[keep]; got != "fp-keep" {
		t.Fatalf("recovered act fp = %q, want fp-keep", got)
	}
	if _, ok := rec2.Acts[drop]; ok {
		t.Fatal("withdrawn act survived recovery")
	}
	if rec2.Deployed["seattle"] != 3 || rec2.Deployed["amsix"] != 3 {
		t.Fatalf("recovered deployed = %v", rec2.Deployed)
	}
	if got := s2.Deployed(); !reflect.DeepEqual(got, rec2.Deployed) {
		t.Fatalf("store deployed = %v, recovered state says %v", got, rec2.Deployed)
	}
	// The revision log comes back exactly: numbering, commit notes, and
	// every retained revision's model.
	if got := s2.Notes(); !reflect.DeepEqual(got, wantNotes) {
		t.Fatalf("recovered notes = %v, want %v", got, wantNotes)
	}
	if got := revisionLog(t, s2); !reflect.DeepEqual(got, wantModels) {
		t.Fatalf("recovered revision log = %+v, want %+v", got, wantModels)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail func(valid []byte) []byte
	}{
		{"short-frame", func(_ []byte) []byte { return []byte{0, 0, 0} }},
		{"torn-payload", func(_ []byte) []byte {
			// Claims 100 payload bytes, delivers 4.
			return []byte{0, 0, 0, 100, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}
		}},
		{"bad-crc-at-eof", func(valid []byte) []byte {
			torn := append([]byte(nil), valid...)
			torn[len(torn)-1] ^= 0xff
			return torn
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _, _ := recoverTestStore(t, dir)
			if _, _, err := s.Create(testSpec("alpha")); err != nil {
				t.Fatalf("Create: %v", err)
			}
			s.Close()

			// A valid frame to mangle for the bad-CRC case.
			payload, err := encodeRecord(99, walTypeAct, walAct{Op: "announce", Key: actKey("alpha", "seattle", "184.164.224.0/24", 1), Fp: "fp"})
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tc.tail(encodeFrame(payload))); err != nil {
				t.Fatal(err)
			}
			f.Close()

			// Recovery truncates the torn tail and proceeds.
			s2, _, rec := recoverTestStore(t, dir)
			if rec == nil || len(rec.Objects) != 1 || rec.Objects[0].Spec.Name != "alpha" {
				t.Fatalf("recovered state after torn tail = %+v", rec)
			}
			// The log is writable again on a clean frame boundary.
			if _, _, err := s2.Create(testSpecAt("beta", "184.164.226.0/24")); err != nil {
				t.Fatalf("Create after torn-tail recovery: %v", err)
			}
			s2.Close()
			s3, _, rec3 := recoverTestStore(t, dir)
			if len(rec3.Objects) != 2 {
				t.Fatalf("recovered %d objects after re-append, want 2", len(rec3.Objects))
			}
			s3.Close()
		})
	}
}

func TestWALMidFileCorruptionFailsClosed(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := recoverTestStore(t, dir)
	if _, _, err := s.Create(testSpec("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Create(testSpecAt("beta", "184.164.226.0/24")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's payload: damage that does
	// NOT extend to EOF is corruption, not a crash artifact.
	data[len(walMagic)+12] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, _, err = RecoverStore(StoreConfig{}, dir)
	if err == nil {
		t.Fatal("recovery from a mid-file corrupt log succeeded")
	}
	if !strings.Contains(err.Error(), "offset") || !strings.Contains(err.Error(), "refusing to recover") {
		t.Fatalf("corruption error lacks offset / fail-closed wording: %v", err)
	}
}

func TestWALDuplicateRevisionRejected(t *testing.T) {
	dir := t.TempDir()
	obj := &Object{Spec: testSpec("alpha"), Revision: 1}
	var data []byte
	data = append(data, walMagic...)
	for seq := uint64(1); seq <= 2; seq++ {
		payload, err := encodeRecord(seq, walTypeCommit, walCommit{
			Kind: ChangeCreated, Name: "alpha", Revision: 1, Object: obj,
		})
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, encodeFrame(payload)...)
	}
	if err := os.WriteFile(filepath.Join(dir, walFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := RecoverStore(StoreConfig{}, dir)
	if err == nil || !strings.Contains(err.Error(), "duplicate revision") {
		t.Fatalf("RecoverStore with duplicate revision = %v, want duplicate-revision error", err)
	}
}

func TestWALSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s, w, _ := recoverTestStore(t, dir)
	w.CompactEvery = 2

	names := []string{"a1", "a2", "a3", "a4", "a5"}
	for i, name := range names {
		if _, _, err := s.Create(testSpecAt(name, fmt.Sprintf("184.164.%d.0/24", 224+i))); err != nil {
			t.Fatalf("Create %s: %v", name, err)
		}
	}
	s.LogAct("announce", actKey("a1", "seattle", "184.164.224.0/24", 1), "fp1")
	if _, err := os.Stat(filepath.Join(dir, snapFileName)); err != nil {
		t.Fatalf("no snapshot after %d commits with CompactEvery=2: %v", len(names), err)
	}
	wantNotes, wantModels := s.Notes(), revisionLog(t, s)
	s.Close()

	s2, _, rec := recoverTestStore(t, dir)
	defer s2.Close()
	if len(rec.Objects) != len(names) {
		t.Fatalf("recovered %d objects, want %d", len(rec.Objects), len(names))
	}
	for i, name := range names {
		if rec.Objects[i].Spec.Name != name {
			t.Fatalf("recovered object %d = %s, want %s", i, rec.Objects[i].Spec.Name, name)
		}
	}
	if rec.Acts[actKey("a1", "seattle", "184.164.224.0/24", 1)] != "fp1" {
		t.Fatalf("act lost across compaction: %v", rec.Acts)
	}
	if got := s2.Notes(); len(got) != len(names) || !reflect.DeepEqual(got, wantNotes) {
		t.Fatalf("notes after compaction = %v, want %v", got, wantNotes)
	}
	if got := revisionLog(t, s2); !reflect.DeepEqual(got, wantModels) {
		t.Fatalf("revision log after compaction = %+v, want %+v", got, wantModels)
	}
}

// TestWALRefusesOtherFormats: a state directory written by format 1
// numbered its deployed map by a counter that no longer exists, so it
// is refused outright rather than replayed under the wrong numbering;
// and within format 2 a record body with a field this code does not
// know, or with bytes after it, is corruption, not something to skip.
func TestWALRefusesOtherFormats(t *testing.T) {
	for _, file := range []string{walFileName, snapFileName} {
		dir := t.TempDir()
		magic := "vbgpwal1"
		if file == snapFileName {
			magic = "vbgpsnp1"
		}
		if err := os.WriteFile(filepath.Join(dir, file), append([]byte(magic), encodeFrame([]byte("{}"))...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := RecoverStore(StoreConfig{}, dir)
		if err == nil || !strings.Contains(err.Error(), "bad magic") || !strings.Contains(err.Error(), "refusing to recover") {
			t.Errorf("RecoverStore over a format-1 %s = %v, want the bad-magic corruption error", file, err)
		}
	}

	for name, body := range map[string]string{
		"unknown field":  `{"kind":"removed","name":"alpha","revision":2,"note":"removed alpha @2"}`,
		"trailing value": `{"kind":"removed","name":"alpha","revision":2}{}`,
		"trailing brace": `{"kind":"removed","name":"alpha","revision":2}}`,
		"missing object": `{"kind":"created","name":"alpha","revision":2}`,
		"bad allocation": `{"kind":"created","name":"alpha","revision":2,"object":{"spec":{"name":"alpha","owner":"o","asn":1,"prefixes":["not a prefix"]},"revision":2,"created_at":"2026-01-01T00:00:00Z","updated_at":"2026-01-01T00:00:00Z"}}`,
	} {
		payload := append([]byte{0, 0, 0, 0, 0, 0, 0, 1, walTypeCommit}, body...)
		if _, err := DecodeWALRecord(payload); err == nil {
			t.Errorf("%s: commit record %s decoded", name, body)
		}
	}
	ok := append([]byte{0, 0, 0, 0, 0, 0, 0, 1, walTypeCommit}, `{"kind":"removed","name":"alpha","revision":2} `...)
	if _, err := DecodeWALRecord(ok); err != nil {
		t.Errorf("well-formed record refused: %v", err)
	}
}
