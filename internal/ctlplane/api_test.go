package ctlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
)

// apiHarness is a full control plane over the fake actuator, served
// from an in-memory HTTP server.
type apiHarness struct {
	store *Store
	rec   *Reconciler
	hub   *Hub
	act   *fakeActuator
	srv   *httptest.Server
}

func newAPIHarness(t *testing.T) *apiHarness {
	t.Helper()
	act := newFakeActuator()
	store := NewStore(StoreConfig{BaseModel: testBase})
	hub := NewHub()
	store.OnChange(func(c Change) { hub.Publish(StreamStore, c) })
	rec := NewReconciler(store, act, hub, ReconcilerConfig{
		Resync:         5 * time.Millisecond,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		ActuationGrace: 100 * time.Millisecond,
		Logf:           t.Logf,
	})
	go rec.Run()

	api := NewServer(ServerConfig{
		Store:      store,
		Reconciler: rec,
		Hub:        hub,
		Deploy:     func(pop string, m config.Model) error { return nil },
		Queries: Queries{
			Fleet: func() any { return []string{"seattle", "amsix"} },
		},
		Logf: t.Logf,
	})
	mux := http.NewServeMux()
	api.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		rec.Close()
		hub.Close()
	})
	return &apiHarness{store: store, rec: rec, hub: hub, act: act, srv: srv}
}

func (h *apiHarness) do(t *testing.T, method, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, h.srv.URL+path, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := h.srv.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestAPICreateLifecycle(t *testing.T) {
	h := newAPIHarness(t)
	spec := testSpec("alpha")

	// Dry run validates without storing.
	resp, body := h.do(t, "POST", "/v1/experiments?dry_run=1", spec)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"dry_run": true`) {
		t.Fatalf("dry run -> %d %s", resp.StatusCode, body)
	}
	if _, err := h.store.Get("alpha"); err == nil {
		t.Fatal("dry run stored the object")
	}

	resp, body = h.do(t, "POST", "/v1/experiments", spec)
	if resp.StatusCode != 201 {
		t.Fatalf("create -> %d %s", resp.StatusCode, body)
	}
	var view objectView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("decode create response: %v", err)
	}
	rev := view.Object.Revision

	// Idempotent re-POST: 200, same revision.
	resp, body = h.do(t, "POST", "/v1/experiments", spec)
	if resp.StatusCode != 200 {
		t.Fatalf("re-create -> %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &view)
	if view.Object.Revision != rev {
		t.Fatalf("re-create bumped revision %d -> %d", rev, view.Object.Revision)
	}

	// Conflicting POST: 409.
	diff := testSpec("alpha")
	diff.Plan = "other"
	resp, _ = h.do(t, "POST", "/v1/experiments", diff)
	if resp.StatusCode != 409 {
		t.Fatalf("conflicting create -> %d, want 409", resp.StatusCode)
	}

	// GET returns object + status once the reconciler has seen it.
	waitPhase(t, h.rec, "alpha", PhaseConverged)
	resp, body = h.do(t, "GET", "/v1/experiments/alpha", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("get -> %d", resp.StatusCode)
	}
	json.Unmarshal(body, &view)
	if view.Status == nil || view.Status.Phase != PhaseConverged {
		t.Fatalf("get status = %+v, want converged", view.Status)
	}

	// PATCH with stale revision: 409. With current: 200.
	next := testSpec("alpha")
	next.Plan = "v2"
	resp, _ = h.do(t, "PATCH", "/v1/experiments/alpha", map[string]any{"revision": rev + 99, "spec": next})
	if resp.StatusCode != 409 {
		t.Fatalf("stale patch -> %d, want 409", resp.StatusCode)
	}
	resp, body = h.do(t, "PATCH", "/v1/experiments/alpha", map[string]any{"revision": rev, "spec": next})
	if resp.StatusCode != 200 {
		t.Fatalf("patch -> %d %s", resp.StatusCode, body)
	}

	// DELETE tombstones (202) and the reconciler removes it.
	resp, _ = h.do(t, "DELETE", "/v1/experiments/alpha", nil)
	if resp.StatusCode != 202 {
		t.Fatalf("delete -> %d, want 202", resp.StatusCode)
	}
	waitGone(t, h.store, "alpha")
	resp, _ = h.do(t, "GET", "/v1/experiments/alpha", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("get after teardown -> %d, want 404", resp.StatusCode)
	}
}

func TestAPIRejectsBadSpecs(t *testing.T) {
	h := newAPIHarness(t)
	cases := []struct {
		name string
		body []byte
	}{
		{"unknown field", []byte(`{"name":"x","owner":"o","asn":1,"prefixes":["184.164.224.0/24"],"bogus":1}`)},
		{"trailing data", []byte(`{"name":"x","owner":"o","asn":1,"prefixes":["184.164.224.0/24"]}{}`)},
		{"bad name", []byte(`{"name":"Not OK","owner":"o","asn":1,"prefixes":["184.164.224.0/24"]}`)},
		{"no prefixes", []byte(`{"name":"x","owner":"o","asn":1}`)},
		{"IPv6 prefix", []byte(`{"name":"x","owner":"o","asn":1,"prefixes":["2804:269c::/32"]}`)},
		{"not json", []byte(`announce all the things`)},
	}
	for _, c := range cases {
		resp, body := h.do(t, "POST", "/v1/experiments", c.body)
		if resp.StatusCode != 400 {
			t.Errorf("%s -> %d %s, want 400", c.name, resp.StatusCode, body)
		}
	}
}

func TestAPIIndexAndStatus(t *testing.T) {
	h := newAPIHarness(t)
	resp, body := h.do(t, "GET", "/v1/", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "/v1/experiments") {
		t.Fatalf("index -> %d %s", resp.StatusCode, body)
	}
	h.do(t, "POST", "/v1/experiments", testSpec("alpha"))
	waitPhase(t, h.rec, "alpha", PhaseConverged)
	resp, body = h.do(t, "GET", "/v1/status", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"converged"`) {
		t.Fatalf("status -> %d %s", resp.StatusCode, body)
	}
	resp, body = h.do(t, "GET", "/v1/experiments", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"alpha"`) {
		t.Fatalf("list -> %d %s", resp.StatusCode, body)
	}
	resp, body = h.do(t, "GET", "/v1/fleet", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "seattle") {
		t.Fatalf("fleet -> %d %s", resp.StatusCode, body)
	}
}

func TestAPIDeployVerbs(t *testing.T) {
	h := newAPIHarness(t)
	h.do(t, "POST", "/v1/experiments", testSpec("alpha"))

	// The create is a deployable revision; canary it to one PoP.
	obj, _ := h.store.Get("alpha")
	resp, body := h.do(t, "POST", "/v1/deploy/canary",
		map[string]any{"revision": obj.Revision, "pops": []string{"seattle"}})
	if resp.StatusCode != 200 {
		t.Fatalf("canary -> %d %s", resp.StatusCode, body)
	}
	resp, body = h.do(t, "POST", "/v1/deploy/promote", map[string]any{"revision": obj.Revision})
	if resp.StatusCode != 200 {
		t.Fatalf("promote -> %d %s", resp.StatusCode, body)
	}
	var result struct {
		Error       string           `json:"error"`
		NewRevision int64            `json:"new_revision"`
		Deployed    map[string]int64 `json:"deployed"`
	}
	json.Unmarshal(body, &result)
	if len(result.Deployed) != 2 {
		t.Fatalf("promote deployed = %v, want both PoPs", result.Deployed)
	}
	resp, body = h.do(t, "GET", "/v1/deploy", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "created alpha") ||
		!strings.Contains(string(body), `"latest_revision": 1`) {
		t.Fatalf("deploy status -> %d %s", resp.StatusCode, body)
	}
	resp, body = h.do(t, "POST", "/v1/deploy/rollback", map[string]any{"revision": obj.Revision})
	json.Unmarshal(body, &result)
	if resp.StatusCode != 200 || result.NewRevision != obj.Revision+1 {
		t.Fatalf("rollback -> %d %s, want new_revision %d", resp.StatusCode, body, obj.Revision+1)
	}
	// Promoting the rollback revision deploys the old model under the
	// new number.
	resp, body = h.do(t, "POST", "/v1/deploy/promote", map[string]any{"revision": result.NewRevision})
	json.Unmarshal(body, &result)
	if resp.StatusCode != 200 || result.Deployed["seattle"] != obj.Revision+1 {
		t.Fatalf("promote of the rollback -> %d %s", resp.StatusCode, body)
	}
	// Bad revision surfaces as conflict with the reason and the
	// deployment truth.
	resp, body = h.do(t, "POST", "/v1/deploy/promote", map[string]any{"revision": 9999})
	json.Unmarshal(body, &result)
	if resp.StatusCode != 409 || !strings.Contains(result.Error, "no revision 9999") ||
		result.Deployed["seattle"] != obj.Revision+1 || result.Deployed["amsix"] != obj.Revision+1 {
		t.Fatalf("bad promote -> %d %s, want 409 with the reason and the deployed map", resp.StatusCode, body)
	}
	resp, body = h.do(t, "POST", "/v1/deploy/rollback", map[string]any{"revision": 9999})
	if resp.StatusCode != 409 || strings.Contains(string(body), "new_revision") {
		t.Fatalf("bad rollback -> %d %s, want 409 and no new revision", resp.StatusCode, body)
	}
}

// TestAPIOverlapIs409: the store refuses an allocation that overlaps a
// live experiment's where the caller can see it.
func TestAPIOverlapIs409(t *testing.T) {
	h := newAPIHarness(t)
	h.do(t, "POST", "/v1/experiments", testSpec("alpha"))
	resp, body := h.do(t, "POST", "/v1/experiments", testSpec("beta"))
	if resp.StatusCode != 409 || !strings.Contains(string(body), "alpha") {
		t.Fatalf("overlapping create -> %d %s, want 409 naming alpha", resp.StatusCode, body)
	}
}

func TestAPIUnprocessableWhenActuatorRejects(t *testing.T) {
	h := newAPIHarness(t)
	h.act.setFail("validate", fmt.Errorf("no such pop"))
	resp, _ := h.do(t, "POST", "/v1/experiments", testSpec("alpha"))
	if resp.StatusCode != 422 {
		t.Fatalf("rejected create -> %d, want 422", resp.StatusCode)
	}
}
