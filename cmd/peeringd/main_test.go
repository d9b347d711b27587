package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/inet"
	"repro/peering"
)

// testDaemon builds what main builds, small: a two-PoP platform with a
// history store and a TE controller, the control plane, and apiMux over
// all of it.
func testDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	cfg := inet.DefaultGenConfig()
	cfg.Tier2 = 10
	cfg.Edges = 40
	topo := inet.Generate(cfg)
	hist, err := history.Open(history.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	anycast := netip.MustParsePrefix("184.164.224.0/24")
	platform := peering.NewPlatform(peering.PlatformConfig{
		ASN: 47065, Topology: topo, History: hist,
		TE: &peering.TEConfig{Prefix: anycast, Clients: 1000, Seed: 1},
	})
	var pops []*peering.PoP
	for i := 0; i < 2; i++ {
		pop, err := platform.AddPoP(peering.PoPConfig{
			Name:      fmt.Sprintf("pop%02d", i),
			RouterID:  netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)}),
			LocalPool: netip.MustParsePrefix(fmt.Sprintf("127.%d.0.0/16", 65+i)),
			ExpLAN:    netip.MustParsePrefix(fmt.Sprintf("100.%d.0.0/24", 65+i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pop.ConnectTransit(uint32(1000+i), 10); err != nil {
			t.Fatal(err)
		}
		pops = append(pops, pop)
	}
	if err := platform.ConnectBackbone(pops[0], pops[1], 400e6, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	te, err := setupTE(platform, pops, anycast)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := peering.NewControlPlane(platform, peering.ControlPlaneConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(apiMux(cp, hist, te))
	t.Cleanup(func() {
		srv.Close()
		cp.Close()
		platform.Close()
	})
	return srv
}

// TestOneHTTPSurface walks the index peeringd serves at /: every path
// it lists answers GET (with JSON, bar the two that are text streams by
// design) and refuses a method it does not list with 405, malformed
// query parameters are 400s, and nothing answers outside /, /metrics
// and /v1/ — the unversioned endpoints of earlier releases are gone.
func TestOneHTTPSurface(t *testing.T) {
	srv := testDaemon(t)
	do := func(method, path string) (*http.Response, string) {
		t.Helper()
		// /v1/watch streams until the client leaves.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if strings.HasPrefix(path, "/v1/watch") {
			ctx, cancel = context.WithTimeout(ctx, 200*time.Millisecond)
			defer cancel()
		}
		req, err := http.NewRequestWithContext(ctx, method, srv.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, string(body)
	}

	spec := `{"name":"probe","owner":"ci","asn":61575,"prefixes":["184.164.226.0/24"]}`
	resp, err := srv.Client().Post(srv.URL+"/v1/experiments", "application/json", strings.NewReader(spec))
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("creating the probe experiment: %v %v", resp, err)
	}
	resp.Body.Close()

	// One concrete request per indexed GET path.
	sample := map[string]string{
		"/metrics":               "/metrics",
		"/v1/":                   "/v1/",
		"/v1/experiments":        "/v1/experiments",
		"/v1/experiments/{name}": "/v1/experiments/probe",
		"/v1/status":             "/v1/status",
		"/v1/watch":              "/v1/watch?types=store",
		"/v1/deploy":             "/v1/deploy",
		"/v1/fleet":              "/v1/fleet",
		"/v1/rib":                "/v1/rib?pop=pop00",
		"/v1/health":             "/v1/health",
		"/v1/catchment":          "/v1/catchment?prefix=184.164.224.0/24",
		"/v1/history/state":      "/v1/history/state?prefix=184.164.224.0/24",
		"/v1/history/between":    "/v1/history/between?prefix=184.164.224.0/24",
		"/v1/history/diff":       "/v1/history/diff?a=pop00&b=pop01",
		"/v1/history/stats":      "/v1/history/stats",
		"/v1/te/status":          "/v1/te/status",
	}
	wantType := map[string]string{"/metrics": "text/plain", "/v1/watch": "text/event-stream"}

	_, body := do("GET", "/")
	var index struct {
		Service   string   `json:"service"`
		Endpoints []string `json:"endpoints"`
	}
	if err := json.Unmarshal([]byte(body), &index); err != nil || index.Service != "peeringd" {
		t.Fatalf("GET / = %s (%v)", body, err)
	}
	methods := make(map[string]map[string]bool) // path pattern -> methods listed
	for _, e := range index.Endpoints {
		f := strings.Fields(e)
		if len(f) < 2 {
			t.Fatalf("index entry %q is not \"METHOD /path ...\"", e)
		}
		path, _, _ := strings.Cut(strings.ReplaceAll(f[1], "[", "?"), "?")
		if path != "/metrics" && !strings.HasPrefix(path, "/v1/") {
			t.Errorf("index lists %q, outside /metrics and /v1/", e)
		}
		if methods[path] == nil {
			methods[path] = make(map[string]bool)
		}
		methods[path][f[0]] = true
	}
	for path, listed := range methods {
		if !listed["GET"] {
			continue
		}
		url, ok := sample[path]
		if !ok {
			t.Errorf("index lists GET %s, which this test has no request for", path)
			continue
		}
		delete(sample, path)
		resp, body := do("GET", url)
		want := wantType[path]
		if want == "" {
			want = "application/json"
			if !json.Valid([]byte(body)) {
				t.Errorf("GET %s: body is not JSON: %.200s", url, body)
			}
		}
		if got := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || !strings.HasPrefix(got, want) {
			t.Errorf("GET %s -> %d %s, want 200 %s: %.200s", url, resp.StatusCode, got, want, body)
		}
		if !listed["POST"] {
			if resp, _ := do("POST", url); resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("POST %s -> %d, want 405", url, resp.StatusCode)
			}
		}
	}
	for path := range sample {
		t.Errorf("GET %s is not in the index", path)
	}
	if resp, _ := do("POST", "/"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST / -> %d, want 405", resp.StatusCode)
	}
	// /v1/catchment resolves the TE prefix for the population the
	// controller steers (the platform configuration names only its size).
	var catchment struct {
		Prefix string `json:"prefix"`
		Total  int    `json:"total"`
	}
	if _, body := do("GET", "/v1/catchment"); json.Unmarshal([]byte(body), &catchment) != nil ||
		catchment.Prefix != "184.164.224.0/24" || catchment.Total != 1000 {
		t.Errorf("GET /v1/catchment = %.200s, want the map of 1000 clients for the TE prefix", body)
	}

	for _, url := range []string{
		"/v1/catchment?prefix=bogus",
		"/v1/rib?pop=pop00&prefix=bogus",
		"/v1/history/state",
		"/v1/history/state?prefix=bogus",
		"/v1/history/state?prefix=184.164.224.0/24&at=yesterday",
		"/v1/history/between?prefix=bogus",
		"/v1/history/between?prefix=184.164.224.0/24&from=yesterday",
		"/v1/history/between?prefix=184.164.224.0/24&to=tomorrow",
		"/v1/history/diff?a=pop00",
		"/v1/history/diff?a=pop00&b=pop01&at=yesterday",
	} {
		if resp, body := do("GET", url); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s -> %d %.200s, want 400", url, resp.StatusCode, body)
		}
	}
	for _, url := range []string{
		"/catchment", "/te/status", "/history/state?prefix=184.164.224.0/24", "/history/between",
		"/history/diff", "/history/stats", "/experiments", "/status", "/v2/", "/v1/no-such", "/v1/te", "/v1/history",
	} {
		if resp, _ := do("GET", url); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s -> %d, want 404", url, resp.StatusCode)
		}
	}
}
