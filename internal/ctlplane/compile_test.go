package ctlplane

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// richSpec exercises every compiled knob: two prefixes, several PoPs
// and versions, poisoning, communities and neighbor steering.
func richSpec(name string, i int) Spec {
	a, b := fmt.Sprintf("10.%d.0.0/24", i), fmt.Sprintf("10.%d.1.0/24", i)
	return Spec{
		Name: name, Owner: "o", ASN: 61000 + uint32(i), Prefixes: []string{a, b},
		Announcements: []Announcement{
			{Prefix: b, PoPs: []string{"seattle", "amsix"}, Prepend: i % 3, Poison: []uint32{65003, 65001},
				Communities: []string{"47065:100", "300:2"}, ExceptNeighbors: []uint32{7, 3}},
			{Prefix: a, PoPs: []string{"amsix"}, Version: 2, ToNeighbors: []uint32{9, 1, 4}},
			{Prefix: a, PoPs: []string{"seattle"}},
		},
	}
}

// checkCompiled asserts an object's compiled fields are what the spec
// derives on demand.
func checkCompiled(t *testing.T, where string, obj *Object) {
	t.Helper()
	if !reflect.DeepEqual(obj.atoms, obj.Spec.Compile()) {
		t.Errorf("%s: %s atoms %+v, Spec.Compile() %+v", where, obj.Spec.Name, obj.atoms, obj.Spec.Compile())
	}
	if !reflect.DeepEqual(obj.pops, obj.Spec.SessionPoPs()) {
		t.Errorf("%s: %s pops %v, Spec.SessionPoPs() %v", where, obj.Spec.Name, obj.pops, obj.Spec.SessionPoPs())
	}
	if obj.caps != CapsFor(obj.Spec) {
		t.Errorf("%s: %s caps %+v, CapsFor %+v", where, obj.Spec.Name, obj.caps, CapsFor(obj.Spec))
	}
	if len(obj.alloc) != len(obj.Spec.Prefixes) {
		t.Errorf("%s: %s allocation %v for prefixes %v", where, obj.Spec.Name, obj.alloc, obj.Spec.Prefixes)
	}
	for i, p := range obj.alloc {
		if p.String() != obj.Spec.Prefixes[i] {
			t.Errorf("%s: %s allocation %v for prefixes %v", where, obj.Spec.Name, obj.alloc, obj.Spec.Prefixes)
		}
	}
}

// TestCompiledFieldsMatchSpec: the fields the store compiles once, at
// commit and at replay, equal what Spec.Compile, SessionPoPs and CapsFor
// derive — for live objects, tombstones, and objects recovered from a
// compaction snapshot and the log after it.
func TestCompiledFieldsMatchSpec(t *testing.T) {
	dir := t.TempDir()
	s, w, _ := recoverTestStore(t, dir)
	w.CompactEvery = 5
	for i := 0; i < 8; i++ {
		if _, _, err := s.Create(richSpec(fmt.Sprintf("exp-%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	obj, _ := s.Get("exp-1")
	next := obj.Spec.Clone()
	next.Announcements = next.Announcements[1:]
	if _, err := s.Update("exp-1", obj.Revision, next); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("exp-2", 0); err != nil {
		t.Fatal(err)
	}
	check := func(where string, s *Store) {
		t.Helper()
		for _, obj := range s.objects {
			checkCompiled(t, where+" object", obj)
		}
		for _, obj := range s.settled {
			checkCompiled(t, where+" settled", obj)
		}
		for _, r := range s.window {
			if r.Object != nil {
				checkCompiled(t, where+" window", r.Object)
			}
		}
	}
	check("live", s)
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, snapFileName)); err != nil {
		t.Fatalf("no compaction snapshot to recover from: %v", err)
	}

	s2, _, _ := recoverTestStore(t, dir)
	defer s2.Close()
	if len(s2.objects) != 8 {
		t.Fatalf("recovered %d objects, want 8", len(s2.objects))
	}
	check("recovered", s2)
}

// fingerprintReference is the fmt-built fingerprint the compiled one
// replaced, kept as its oracle: recovered WALs hold fingerprints in
// this form, and adoption compares them byte for byte.
func fingerprintReference(a CompiledAnn) string {
	var b strings.Builder
	fmt.Fprintf(&b, "prepend=%d", a.Prepend)
	writeU32s := func(tag string, v []uint32) {
		s := append([]uint32(nil), v...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		fmt.Fprintf(&b, " %s=%v", tag, s)
	}
	writeU32s("poison", a.Poison)
	writeU32s("to", a.ToNeighbors)
	writeU32s("except", a.ExceptNeighbors)
	comms := make([]string, len(a.Communities))
	for i, c := range a.Communities {
		comms[i] = c.String()
	}
	sort.Strings(comms)
	fmt.Fprintf(&b, " comms=%v", comms)
	return b.String()
}

func TestFingerprintMatchesReference(t *testing.T) {
	specs := []Spec{testSpec("plain")}
	for i := 0; i < 4; i++ {
		specs = append(specs, richSpec(fmt.Sprintf("rich-%d", i), i))
	}
	for _, spec := range specs {
		for _, ann := range spec.Compile() {
			if want := fingerprintReference(ann); ann.Fingerprint != want {
				t.Errorf("%s: fingerprint %q, reference %q", ann.Key, ann.Fingerprint, want)
			}
		}
	}
}

// Compile expands a validated spec into its announcement atoms, one per
// (prefix, version, pop), sorted by key, each fingerprinted. The store
// compiles every object once, as it enters.
func (s Spec) Compile() []CompiledAnn {
	out, _ := s.compile()
	return out
}
