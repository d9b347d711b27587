package ctlplane

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
)

// deployTestStore holds two revisions of one experiment over the
// two-PoP test fleet (amsix is applied after seattle: a promote walks
// the model's PoPs in order).
func deployTestStore(t *testing.T) (s *Store, rev1, rev2 int64) {
	t.Helper()
	s = NewStore(StoreConfig{BaseModel: testBase})
	obj, _, err := s.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	next := testSpec("alpha")
	next.Plan = "phase two"
	upd, err := s.Update("alpha", obj.Revision, next)
	if err != nil {
		t.Fatal(err)
	}
	return s, obj.Revision, upd.Revision
}

func TestDeployCanaryThenPromote(t *testing.T) {
	s, rev, _ := deployTestStore(t)
	applied := make(map[string]int)
	apply := func(pop string, m config.Model) error {
		if len(m.Experiments) != 1 || m.Experiments[0].Name != "alpha" {
			t.Errorf("applied model experiments = %+v", m.Experiments)
		}
		applied[pop]++
		return nil
	}
	if err := s.Canary(rev, []string{"amsix"}, apply); err != nil {
		t.Fatal(err)
	}
	if applied["amsix"] != 1 || applied["seattle"] != 0 {
		t.Fatalf("after canary: %v", applied)
	}
	if err := s.Promote(rev, apply); err != nil {
		t.Fatal(err)
	}
	// The canary PoP is not re-applied.
	if applied["amsix"] != 1 || applied["seattle"] != 1 {
		t.Fatalf("after promote: %v", applied)
	}
	if dep := s.Deployed(); dep["amsix"] != rev || dep["seattle"] != rev || len(dep) != 2 {
		t.Errorf("deployed = %v", dep)
	}
}

func TestDeployApplyFailure(t *testing.T) {
	s, rev, _ := deployTestStore(t)
	boom := errors.New("apply failed")
	err := s.Canary(rev, []string{"amsix"}, func(string, config.Model) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if len(s.Deployed()) != 0 {
		t.Error("failed apply recorded as deployed")
	}
}

// TestDeployInvalidModelRefused: a revision whose derived model does
// not validate — here because of the platform half, which is read when
// the verb runs — is refused before any PoP is touched.
func TestDeployInvalidModelRefused(t *testing.T) {
	var clash bool
	s := NewStore(StoreConfig{BaseModel: func() config.Model {
		m := testBase()
		if clash {
			// Approved outside the control plane, on alpha's allocation.
			m.Experiments = []config.ExperimentSpec{{
				Name: "manual", ASNs: []uint32{65010}, Approved: true,
				Prefixes: []netip.Prefix{netip.MustParsePrefix("184.164.224.0/23")},
			}}
		}
		return m
	}})
	obj, _, err := s.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	apply := func(pop string, _ config.Model) error {
		if clash {
			t.Errorf("invalid model applied to %s", pop)
		}
		return nil
	}
	clash = true
	err = s.Promote(obj.Revision, apply)
	if err == nil || !strings.Contains(err.Error(), "overlapping prefixes") {
		t.Fatalf("promote of an invalid model = %v, want the validation error", err)
	}
	if len(s.Deployed()) != 0 {
		t.Fatalf("refused promote deployed %v", s.Deployed())
	}
	clash = false
	if err := s.Promote(obj.Revision, apply); err != nil {
		t.Fatalf("promote once the model validates: %v", err)
	}
}

// TestDeployMidPromoteFailure drives a fleet-wide promote that dies
// halfway: the store must report the true partial rollout — PoPs
// applied before the failure at the new revision, the rest still on the
// old one — and a retry after the fault clears must touch only the
// PoPs left behind.
func TestDeployMidPromoteFailure(t *testing.T) {
	s, rev1, rev2 := deployTestStore(t)
	boom := errors.New("router config rejected")
	var failAmsix bool
	applied := make(map[string]int)
	apply := func(pop string, m config.Model) error {
		if failAmsix && pop == "amsix" {
			return boom
		}
		applied[pop]++
		return nil
	}
	if err := s.Promote(rev1, apply); err != nil {
		t.Fatal(err)
	}

	// seattle takes rev2, then amsix's apply fails.
	failAmsix = true
	err := s.Promote(rev2, apply)
	if !errors.Is(err, boom) {
		t.Fatalf("mid-promote error = %v, want %v", err, boom)
	}
	if dep := s.Deployed(); dep["seattle"] != rev2 || dep["amsix"] != rev1 {
		t.Fatalf("after failed promote deployed = %v, want seattle@%d amsix@%d", dep, rev2, rev1)
	}

	// Retry once the fault clears: only the straggler is re-applied.
	failAmsix = false
	before := applied["seattle"]
	if err := s.Promote(rev2, apply); err != nil {
		t.Fatal(err)
	}
	if applied["seattle"] != before {
		t.Error("retry re-applied a PoP already at the target revision")
	}
	if dep := s.Deployed(); dep["seattle"] != rev2 || dep["amsix"] != rev2 {
		t.Fatalf("after retry deployed = %v, want fleet-wide %d", dep, rev2)
	}
}

// TestDeployConcurrentCanaryPromote races canaries against a fleet-wide
// promote of a different revision. The store must stay race-clean (run
// under -race) and every PoP must land on one of the two revisions —
// never a torn or unknown value.
func TestDeployConcurrentCanaryPromote(t *testing.T) {
	s, rev1, rev2 := deployTestStore(t)
	apply := func(string, config.Model) error {
		time.Sleep(time.Millisecond) // widen the race window
		return nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := s.Canary(rev1, []string{"amsix"}, apply); err != nil {
				t.Errorf("canary: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := s.Promote(rev2, apply); err != nil {
				t.Errorf("promote: %v", err)
			}
		}()
	}
	wg.Wait()

	for pop, rev := range s.Deployed() {
		if rev != rev1 && rev != rev2 {
			t.Errorf("pop %s deployed at %d, want %d or %d", pop, rev, rev1, rev2)
		}
	}
	// A final quiescent promote converges the whole fleet.
	if err := s.Promote(rev2, apply); err != nil {
		t.Fatal(err)
	}
	if dep := s.Deployed(); dep["amsix"] != rev2 || dep["seattle"] != rev2 {
		t.Fatalf("final deployed = %v, want fleet-wide %d", dep, rev2)
	}
}

// TestDeployPartialRolloutSurvivesRestart: a promote that fails at the
// second of three PoPs is recorded as far as it got, so the 409 body,
// GET /v1/deploy and GET /v1/deploy after a restart all tell the same
// partial truth, and a retry promotes only the stragglers.
func TestDeployPartialRolloutSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("router config rejected")
	failAmsix := true
	var applied []string
	// serve recovers the store from dir and mounts the API over it.
	serve := func() (*Store, *apiHarness) {
		s, _, _, err := RecoverStore(StoreConfig{BaseModel: func() config.Model {
			m := testBase() // seattle, amsix — and a third PoP behind them
			m.PoPs = append(m.PoPs, config.PoPSpec{Name: "saopaulo"})
			return m
		}}, dir)
		if err != nil {
			t.Fatalf("RecoverStore: %v", err)
		}
		mux := http.NewServeMux()
		NewServer(ServerConfig{Store: s, Deploy: func(pop string, _ config.Model) error {
			if failAmsix && pop == "amsix" {
				return boom
			}
			applied = append(applied, pop)
			return nil
		}}).Register(mux)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return s, &apiHarness{store: s, srv: srv}
	}
	type deployView struct {
		Error    string           `json:"error"`
		Deployed map[string]int64 `json:"deployed"`
	}
	status := func(h *apiHarness) map[string]int64 {
		var v deployView
		resp, body := h.do(t, "GET", "/v1/deploy", nil)
		if err := json.Unmarshal(body, &v); err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET /v1/deploy -> %d %s (%v)", resp.StatusCode, body, err)
		}
		return v.Deployed
	}

	s, h := serve()
	obj, _, err := s.Create(testSpec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"seattle": obj.Revision}
	resp, body := h.do(t, "POST", "/v1/deploy/promote", map[string]any{"revision": obj.Revision})
	var failed deployView
	json.Unmarshal(body, &failed)
	if resp.StatusCode != 409 || !strings.Contains(failed.Error, boom.Error()) || !reflect.DeepEqual(failed.Deployed, want) {
		t.Fatalf("failing promote -> %d %s, want 409 with %v deployed", resp.StatusCode, body, want)
	}
	if got := status(h); !reflect.DeepEqual(got, want) {
		t.Fatalf("GET /v1/deploy after the failure = %v, want %v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, h = serve()
	defer s.Close()
	if got := status(h); !reflect.DeepEqual(got, want) {
		t.Fatalf("GET /v1/deploy after the restart = %v, want %v", got, want)
	}
	failAmsix, applied = false, nil
	if resp, body := h.do(t, "POST", "/v1/deploy/promote", map[string]any{"revision": obj.Revision}); resp.StatusCode != 200 {
		t.Fatalf("retry -> %d %s", resp.StatusCode, body)
	}
	if !reflect.DeepEqual(applied, []string{"amsix", "saopaulo"}) {
		t.Fatalf("retry applied %v, want only the stragglers", applied)
	}
	if got := status(h); len(got) != 3 || got["amsix"] != obj.Revision || got["saopaulo"] != obj.Revision {
		t.Fatalf("deployed after the retry = %v", got)
	}
}
