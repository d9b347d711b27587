package peering

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"net/netip"

	"repro/internal/bgp"
	"repro/internal/ctlplane"
	"repro/internal/guard"
	"repro/internal/rib"
	"repro/internal/telemetry"
)

// ctlplaneTestbed is two backbone-connected PoPs under a running
// control plane with its API served over HTTP.
func ctlplaneTestbed(t *testing.T) (*Platform, *ControlPlane, *httptest.Server) {
	t.Helper()
	p := NewPlatform(PlatformConfig{ASN: 47065, Logf: t.Logf})
	popA, err := p.AddPoP(PoPConfig{
		Name: "amsix", RouterID: addr("198.51.100.1"),
		LocalPool: pfx("127.65.0.0/16"), ExpLAN: pfx("100.65.0.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	popB, err := p.AddPoP(PoPConfig{
		Name: "seattle", RouterID: addr("198.51.100.2"),
		LocalPool: pfx("127.66.0.0/16"), ExpLAN: pfx("100.66.0.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ConnectBackbone(popA, popB, 400e6, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cp, err := NewControlPlane(p, ControlPlaneConfig{
		Reconciler: ctlplane.ReconcilerConfig{
			Resync:         10 * time.Millisecond,
			BackoffBase:    5 * time.Millisecond,
			BackoffMax:     100 * time.Millisecond,
			ActuationGrace: 2 * time.Second,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	cp.API.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		cp.Close()
		p.Close()
	})
	return p, cp, srv
}

// httpJSON drives one API call and decodes the response.
func httpJSON(t *testing.T, srv *httptest.Server, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// directPaths returns the pop's experiment-RIB paths for the prefix
// installed directly by the named experiment's own session. The
// backbone mesh redistributes accepted routes between PoPs under peer
// "mesh:<pop>", so the raw table holds copies beyond the direct one.
func directPaths(p *Platform, pop string, prefix netip.Prefix, exp string) []*rib.Path {
	var out []*rib.Path
	for _, path := range p.PoP(pop).Router.ExperimentRoutes().Paths(prefix) {
		if path.Peer == exp {
			out = append(out, path)
		}
	}
	return out
}

// atPhase reports, over the API, whether the experiment is in the phase
// at (or past) the wanted revision.
func atPhase(t *testing.T, srv *httptest.Server, name string, phase ctlplane.Phase, rev int64) func() bool {
	return func() bool {
		code, body := httpJSON(t, srv, "GET", "/v1/experiments/"+name, nil)
		var view struct {
			Status *ctlplane.ObjectStatus `json:"status"`
		}
		return code == 200 && json.Unmarshal(body, &view) == nil && view.Status != nil &&
			view.Status.Phase == phase && (rev == 0 || view.Status.ConvergedRevision >= rev)
	}
}

// TestControlPlaneHTTPLifecycle is the acceptance test: a full
// experiment lifecycle driven purely over the HTTP API —
// create → validate → canary → promote → steer → withdraw → delete —
// with idempotent convergence, CAS conflicts, a concurrent SSE
// subscriber observing every transition, metrics, and audit entries.
func TestControlPlaneHTTPLifecycle(t *testing.T) {
	p, cp, srv := ctlplaneTestbed(t)

	// Concurrent SSE subscriber: collect reconcile + store + deploy
	// events for the whole lifecycle.
	sseResp, err := srv.Client().Get(srv.URL + "/v1/watch?types=reconcile,store,deploy")
	if err != nil {
		t.Fatalf("open watch stream: %v", err)
	}
	defer sseResp.Body.Close()
	var sseMu sync.Mutex
	sseEvents := make(map[string][]string) // event type -> data payloads
	go func() {
		scanner := bufio.NewScanner(sseResp.Body)
		var event string
		for scanner.Scan() {
			line := scanner.Text()
			if strings.HasPrefix(line, "event: ") {
				event = strings.TrimPrefix(line, "event: ")
			}
			if strings.HasPrefix(line, "data: ") {
				sseMu.Lock()
				sseEvents[event] = append(sseEvents[event], strings.TrimPrefix(line, "data: "))
				sseMu.Unlock()
			}
		}
	}()
	waitFor(t, 5*time.Second, "SSE subscriber registered", func() bool { return cp.Hub.Subscribers() == 1 })

	spec := map[string]any{
		"name": "steering", "owner": "alice", "asn": expASN,
		"plan":     "control-plane lifecycle study",
		"prefixes": []string{"184.164.224.0/23"},
		"announcements": []map[string]any{
			{"prefix": "184.164.224.0/24", "pops": []string{"amsix", "seattle"}},
		},
	}

	// Dry-run first: validated, not stored.
	code, _ := httpJSON(t, srv, "POST", "/v1/experiments?dry_run=1", spec)
	if code != 200 {
		t.Fatalf("dry run -> %d", code)
	}
	if code, _ := httpJSON(t, srv, "GET", "/v1/experiments/steering", nil); code != 404 {
		t.Fatalf("dry run stored the object (GET -> %d)", code)
	}

	// Create.
	code, body := httpJSON(t, srv, "POST", "/v1/experiments", spec)
	if code != 201 {
		t.Fatalf("create -> %d %s", code, body)
	}
	var view struct {
		Object ctlplane.Object `json:"object"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	rev := view.Object.Revision

	// Idempotent re-POST: 200, no new revision.
	code, body = httpJSON(t, srv, "POST", "/v1/experiments", spec)
	if code != 200 {
		t.Fatalf("re-create -> %d %s", code, body)
	}
	json.Unmarshal(body, &view)
	if view.Object.Revision != rev {
		t.Fatalf("idempotent re-POST bumped revision %d -> %d", rev, view.Object.Revision)
	}

	// The reconciler converges: proposal approved, tunnels opened,
	// sessions established, both announcements installed in the PoPs'
	// experiment RIBs.
	waitFor(t, 15*time.Second, "steering converged over HTTP", atPhase(t, srv, "steering", ctlplane.PhaseConverged, rev))
	for _, pop := range []string{"amsix", "seattle"} {
		paths := directPaths(p, pop, pfx("184.164.224.0/24"), "steering")
		if len(paths) != 1 {
			t.Fatalf("pop %s RIB = %v, want one steering path", pop, paths)
		}
	}

	// Every commit is a deployable revision; canary then promote the
	// object's onto the fleet over HTTP.
	code, body = httpJSON(t, srv, "GET", "/v1/experiments/steering", nil)
	json.Unmarshal(body, &view)
	cfgRev := view.Object.Revision
	if cfgRev == 0 {
		t.Fatal("no revision to deploy")
	}
	code, body = httpJSON(t, srv, "POST", "/v1/deploy/canary",
		map[string]any{"revision": cfgRev, "pops": []string{"amsix"}})
	if code != 200 {
		t.Fatalf("canary -> %d %s", code, body)
	}
	code, body = httpJSON(t, srv, "POST", "/v1/deploy/promote", map[string]any{"revision": cfgRev})
	if code != 200 {
		t.Fatalf("promote -> %d %s", code, body)
	}
	var deployResult struct {
		Deployed map[string]int64 `json:"deployed"`
	}
	json.Unmarshal(body, &deployResult)
	if deployResult.Deployed["amsix"] != cfgRev || deployResult.Deployed["seattle"] != cfgRev {
		t.Fatalf("promote deployed = %v, want rev %d fleet-wide", deployResult.Deployed, cfgRev)
	}

	// Stale CAS: PATCH at the creation revision after it advanced is
	// rejected with 409 and the current object.
	steered := map[string]any{
		"name": "steering", "owner": "alice", "asn": expASN,
		"plan":     "control-plane lifecycle study",
		"prefixes": []string{"184.164.224.0/23"},
		"announcements": []map[string]any{
			{"prefix": "184.164.224.0/24", "pops": []string{"seattle"}, "prepend": 2},
		},
	}
	code, _ = httpJSON(t, srv, "PATCH", "/v1/experiments/steering",
		map[string]any{"revision": rev + 1000, "spec": steered})
	if code != 409 {
		t.Fatalf("stale PATCH -> %d, want 409", code)
	}

	// Steer with the current revision: withdraw at amsix, prepend at
	// seattle.
	code, body = httpJSON(t, srv, "GET", "/v1/experiments/steering", nil)
	json.Unmarshal(body, &view)
	code, body = httpJSON(t, srv, "PATCH", "/v1/experiments/steering",
		map[string]any{"revision": view.Object.Revision, "spec": steered})
	if code != 200 {
		t.Fatalf("steer PATCH -> %d %s", code, body)
	}
	json.Unmarshal(body, &view)
	waitFor(t, 15*time.Second, "steering converged over HTTP", atPhase(t, srv, "steering", ctlplane.PhaseConverged, view.Object.Revision))

	waitFor(t, 5*time.Second, "amsix withdrawal converges", func() bool {
		return len(directPaths(p, "amsix", pfx("184.164.224.0/24"), "steering")) == 0
	})
	paths := directPaths(p, "seattle", pfx("184.164.224.0/24"), "steering")
	if len(paths) != 1 {
		t.Fatalf("seattle RIB after steer = %v", paths)
	}
	asPath := paths[0].Attrs.ASPathFlat()
	prepends := 0
	for _, asn := range asPath {
		if asn == expASN {
			prepends++
		}
	}
	if prepends < 3 { // origin + 2 prepends
		t.Fatalf("prepend not applied: AS path %v", asPath)
	}

	// Delete: 202, teardown converges, object gone, RIBs clean, name
	// reusable.
	code, _ = httpJSON(t, srv, "DELETE", "/v1/experiments/steering", nil)
	if code != 202 {
		t.Fatalf("delete -> %d, want 202", code)
	}
	waitFor(t, 5*time.Second, "object removed", func() bool {
		code, _ := httpJSON(t, srv, "GET", "/v1/experiments/steering", nil)
		return code == 404
	})
	for _, pop := range []string{"amsix", "seattle"} {
		if n := len(directPaths(p, pop, pfx("184.164.224.0/24"), "steering")); n != 0 {
			t.Fatalf("pop %s RIB not cleaned after delete: %d paths", pop, n)
		}
	}
	code, _ = httpJSON(t, srv, "POST", "/v1/experiments", spec)
	if code != 201 {
		t.Fatalf("recreate after delete -> %d, want 201", code)
	}

	// Every actuation flowed through the audited enforcement path: the
	// lifecycle (2 announces, steer = withdraw + re-announce, teardown
	// withdraw) leaves at least 5 audit entries for the experiment.
	var audited int
	for _, e := range p.Engine.Audit() {
		if e.Experiment == "steering" {
			audited++
		}
	}
	if audited < 5 {
		t.Fatalf("audit log has %d entries for the managed experiment, want >= 5", audited)
	}

	// The SSE subscriber saw the whole story: store commits for
	// create/update/delete, reconcile transitions through converged,
	// and the deploy verbs.
	waitFor(t, 5*time.Second, "SSE stream catches up", func() bool {
		sseMu.Lock()
		defer sseMu.Unlock()
		return len(sseEvents["deploy"]) >= 2 && len(sseEvents["store"]) >= 4
	})
	sseMu.Lock()
	defer sseMu.Unlock()
	storeAll := strings.Join(sseEvents["store"], "\n")
	for _, kind := range []string{"created", "updated", "deleted", "removed"} {
		if !strings.Contains(storeAll, fmt.Sprintf("%q", kind)) {
			t.Errorf("store stream missing %s change: %s", kind, storeAll)
		}
	}
	recAll := strings.Join(sseEvents["reconcile"], "\n")
	for _, phase := range []string{"converging", "converged", "deleting"} {
		if !strings.Contains(recAll, fmt.Sprintf("%q", phase)) {
			t.Errorf("reconcile stream missing %s transition: %s", phase, recAll)
		}
	}
	deployAll := strings.Join(sseEvents["deploy"], "\n")
	for _, verb := range []string{"canary", "promote"} {
		if !strings.Contains(deployAll, verb) {
			t.Errorf("deploy stream missing %s: %s", verb, deployAll)
		}
	}

	// ctlplane metrics registered and moving.
	reg := telemetry.Default()
	if reg.Counter("ctlplane_store_commits_total").Value() == 0 {
		t.Error("ctlplane_store_commits_total never incremented")
	}
	if reg.Counter("ctlplane_reconcile_runs_total").Value() == 0 {
		t.Error("ctlplane_reconcile_runs_total never incremented")
	}
	if reg.Counter("ctlplane_reconcile_actions_total", telemetry.L("kind", "announce")).Value() == 0 {
		t.Error("announce action counter never incremented")
	}
	if reg.Counter("ctlplane_watch_events_total", telemetry.L("type", "reconcile")).Value() == 0 {
		t.Error("watch event counter never incremented")
	}
}

// TestControlPlaneValidationRejectsUnknownPoP exercises the synchronous
// platform validation path: a spec naming a PoP that does not exist is
// rejected at POST time with 422, before any actuation.
func TestControlPlaneValidationRejectsUnknownPoP(t *testing.T) {
	_, _, srv := ctlplaneTestbed(t)
	spec := map[string]any{
		"name": "ghost", "owner": "alice", "asn": expASN,
		"prefixes": []string{"184.164.226.0/24"},
		"announcements": []map[string]any{
			{"prefix": "184.164.226.0/24", "pops": []string{"atlantis"}},
		},
	}
	code, body := httpJSON(t, srv, "POST", "/v1/experiments", spec)
	if code != 422 {
		t.Fatalf("unknown-pop create -> %d %s, want 422", code, body)
	}
}

// TestControlPlaneCoexistsWithManualExperiments checks a derived model
// keeps out-of-band experiments: an experiment approved through the manual
// workflow survives a control-plane commit + promote cycle.
func TestControlPlaneCoexistsWithManualExperiments(t *testing.T) {
	p, _, srv := ctlplaneTestbed(t)
	if err := p.Submit(Proposal{
		Name: "manual", Owner: "bob", Plan: "hand-driven study",
		Prefixes: []netip.Prefix{pfx("184.164.230.0/24")},
		ASNs:     []uint32{65010},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Approve("manual", nil); err != nil {
		t.Fatal(err)
	}

	spec := map[string]any{
		"name": "managed", "owner": "alice", "asn": expASN,
		"prefixes": []string{"184.164.224.0/24"},
		"announcements": []map[string]any{
			{"prefix": "184.164.224.0/24", "pops": []string{"amsix"}},
		},
	}
	code, body := httpJSON(t, srv, "POST", "/v1/experiments", spec)
	if code != 201 {
		t.Fatalf("create -> %d %s", code, body)
	}
	waitFor(t, 15*time.Second, "managed converged over HTTP", atPhase(t, srv, "managed", ctlplane.PhaseConverged, 0))

	var view struct {
		Object ctlplane.Object `json:"object"`
	}
	_, body = httpJSON(t, srv, "GET", "/v1/experiments/managed", nil)
	json.Unmarshal(body, &view)
	code, body = httpJSON(t, srv, "POST", "/v1/deploy/promote",
		map[string]any{"revision": view.Object.Revision})
	if code != 200 {
		t.Fatalf("promote -> %d %s", code, body)
	}
	// Both experiments remain registered with the enforcement engine.
	names := p.Engine.Experiments()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	if !found["manual"] || !found["managed"] {
		t.Fatalf("promote disturbed registrations: %v", names)
	}
}

// quietControlPlane runs a control plane over a one-PoP platform with n
// specs, each announcing its /24, and returns once every spec has
// converged and resync ticks no longer run passes.
func quietControlPlane(t *testing.T, guardCfg *GuardConfig, n int) (*Platform, *PoP, *ControlPlane) {
	t.Helper()
	p := NewPlatform(PlatformConfig{ASN: 47065, Guard: guardCfg})
	pop, err := p.AddPoP(PoPConfig{
		Name: "amsix", RouterID: addr("198.51.100.1"),
		LocalPool: pfx("127.65.0.0/16"), ExpLAN: pfx("100.65.0.0/16"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewControlPlane(p, ControlPlaneConfig{
		Reconciler: ctlplane.ReconcilerConfig{Resync: 10 * time.Millisecond, MaxActionsPerSecond: 1e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cp.Close()
		p.Close()
	})
	for i := 0; i < n; i++ {
		prefix := fmt.Sprintf("10.%d.%d.0/24", i>>8, i&255)
		if _, _, err := cp.Store.Create(ctlplane.Spec{
			Name: fmt.Sprintf("quiet-%03d", i), Owner: "o", ASN: 64600 + uint32(i),
			Prefixes:      []string{prefix},
			Announcements: []ctlplane.Announcement{{Prefix: prefix, PoPs: []string{"amsix"}}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, "specs converged and reconcile passes stopped", reconcileQuiet(cp, n))
	return p, pop, cp
}

// reconcileRuns reads the reconciler's pass counter.
func reconcileRuns() float64 { return telemetry.Default().Value("ctlplane_reconcile_runs_total") }

// reconcileQuiet reports whether n specs have converged and no reconcile
// pass has run for 50 ms — five resync ticks in a row.
func reconcileQuiet(cp *ControlPlane, n int) func() bool {
	runs, since := -1.0, time.Now()
	return func() bool {
		if r := reconcileRuns(); r != runs {
			runs, since = r, time.Now()
		}
		converged := 0
		for _, st := range cp.Reconciler.Status() {
			if st.Phase == ctlplane.PhaseConverged {
				converged++
			}
		}
		return converged == n && time.Since(since) >= 50*time.Millisecond
	}
}

// TestObservedInputsForcePass: an idle reconciler skips its ticks only
// while nothing Observed reads has changed. Changing any one input —
// with the store untouched — makes the next tick run a full pass.
func TestObservedInputsForcePass(t *testing.T) {
	gcfg := DefaultGuardConfig()
	gcfg.SampleInterval = time.Hour // the test moves the health state itself
	p, pop, cp := quietControlPlane(t, gcfg, 2)
	outsider := pfx("10.99.0.0/24")
	for _, c := range []struct {
		input  string
		change func()
	}{
		{"experiment-table version", func() {
			pop.Router.ExperimentRoutes().Add(&rib.Path{Prefix: outsider, Peer: "outsider", EBGP: true,
				Seq: rib.NextSeq(), Attrs: &bgp.PathAttrs{NextHop: addr("100.65.0.99")}})
		}},
		{"audit sequence", func() { p.Engine.EvaluateWithdraw("outsider", "amsix", outsider) }},
		{"managed session state", func() { cp.act.runtime("quiet-000").client.StopBGP("amsix") }},
		{"proposals", func() {
			if err := p.Submit(Proposal{Name: "outsider", Owner: "o", Plan: "p"}); err != nil {
				t.Fatal(err)
			}
		}},
		{"PoP health", func() { pop.health.Observe(guard.Pressure{UpdateRate: 5_000}) }}, // degraded
	} {
		before := reconcileRuns()
		c.change()
		waitFor(t, 5*time.Second, c.input+" change to run a pass", func() bool { return reconcileRuns() > before })
		waitFor(t, 20*time.Second, "reconcile passes to stop", reconcileQuiet(cp, 2))
	}
	// And a kick runs one with nothing changed.
	before := reconcileRuns()
	cp.Reconciler.Kick()
	waitFor(t, 5*time.Second, "a kick to run a pass", func() bool { return reconcileRuns() > before })
}

// TestAllocationShrinkRevokesSource: an update that shrinks an
// experiment's allocation republishes the anti-spoofing program of its
// open tunnel taps in the same call that re-registers the engine, so the
// freed prefix's sources drop on the tunnel that was already open
// (§4.7), while the kept prefix's still pass.
func TestAllocationShrinkRevokesSource(t *testing.T) {
	p, pop, cp := quietControlPlane(t, nil, 0)
	spec := ctlplane.Spec{
		Name: "shrink", Owner: "o", ASN: expASN,
		Prefixes:      []string{"184.164.224.0/23"},
		Announcements: []ctlplane.Announcement{{Prefix: "184.164.224.0/24", PoPs: []string{"amsix"}}},
	}
	obj, _, err := cp.Store.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, "the experiment converged", reconcileQuiet(cp, 1))
	pc, err := cp.act.runtime("shrink").client.conn("amsix")
	if err != nil {
		t.Fatal(err)
	}
	kept, freed := addr("184.164.224.1"), addr("184.164.225.1")
	if got := tapPasses(t, pop, pc, kept, freed); !got[kept] || !got[freed] {
		t.Fatalf("before the shrink the tap passed %v, want both sources", got)
	}

	spec.Prefixes = []string{"184.164.224.0/24"}
	if _, err := cp.Store.Update("shrink", obj.Revision, spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, "the engine holds the shrunk allocation", func() bool {
		e := p.Engine.Experiment("shrink")
		return e != nil && len(e.Prefixes) == 1 && e.Prefixes[0] == pfx("184.164.224.0/24")
	})
	drops := tapDrops("amsix", "shrink")
	dropsBefore := drops.Value()
	got := tapPasses(t, pop, pc, kept, freed)
	if got[freed] {
		t.Fatal("the freed prefix still sources traffic on the open tunnel after the shrink")
	}
	if !got[kept] {
		t.Error("the kept prefix's source was dropped after the shrink")
	}
	if n := drops.Value() - dropsBefore; n != 1 {
		t.Errorf("tap counted %d spoofed drops, want 1", n)
	}
}
