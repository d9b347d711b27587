package ctlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"repro/internal/config"
)

// Queries are the read-only platform views unified under /v1/. Any nil
// hook 404s its endpoint.
type Queries struct {
	// Fleet describes PoPs and their interconnections.
	Fleet func() any
	// RIB returns routes at a PoP: table is "experiments" (default) or
	// "adj-in"; prefix optionally filters.
	RIB func(pop, table string, prefix netip.Prefix) (any, error)
	// Health returns the guard ladder report.
	Health func() any
	// Catchment returns the current anycast catchment map (TE runs) for
	// prefix, or for the platform's TE prefix when it is the zero value.
	Catchment func(prefix netip.Prefix) (any, error)
}

// Server is the control plane's HTTP/JSON surface. Mount on a mux with
// Register; every route lives under /v1/.
type Server struct {
	store   *Store
	rec     *Reconciler
	hub     *Hub
	deploy  func(pop string, m config.Model) error
	queries Queries
	logf    func(format string, args ...any)

	mRequests *counterVecish
}

// ServerConfig wires a Server.
type ServerConfig struct {
	Store      *Store
	Reconciler *Reconciler
	Hub        *Hub
	// Deploy pushes one derived model to one PoP; the /v1/deploy verbs
	// roll revisions out through it. Nil leaves them unmounted.
	Deploy  func(pop string, m config.Model) error
	Queries Queries
	Logf    func(format string, args ...any)
}

// NewServer builds the API server.
func NewServer(cfg ServerConfig) *Server {
	return &Server{
		store:     cfg.Store,
		rec:       cfg.Reconciler,
		hub:       cfg.Hub,
		deploy:    cfg.Deploy,
		queries:   cfg.Queries,
		logf:      cfg.Logf,
		mRequests: &counterVecish{m: make(map[string]metric)},
	}
}

// route is one endpoint: its mux pattern, what the index says about it
// (hint completes the path with its parameters), the request-counter
// label, and the handler.
type route struct {
	pattern, hint, doc, label string
	handler                   http.HandlerFunc
}

// routes is the one list both the index and the mux are built from;
// every route lives under /v1/, and a nil hook leaves its endpoint out.
func (s *Server) routes() []route {
	rs := []route{
		{"GET /v1/{$}", "", "this index", "index", s.handleIndex},
		{"GET /v1/experiments", "", "list experiment objects + status", "list", s.handleList},
		{"POST /v1/experiments", "[?dry_run=1]", "create (idempotent; dry_run validates only)", "create", s.handleCreate},
		{"GET /v1/experiments/{name}", "", "one object + convergence status", "get", s.handleGet},
		{"PATCH /v1/experiments/{name}", "", "CAS update {revision, spec}", "update", s.handleUpdate},
		{"DELETE /v1/experiments/{name}", "[?revision=N]", "tombstone + teardown", "delete", s.handleDelete},
		{"GET /v1/status", "", "reconciler summary", "status", s.handleStatus},
	}
	if s.hub != nil {
		rs = append(rs, route{"GET /v1/watch", "?types=a,b", "SSE event stream", "watch", s.hub.ServeHTTP})
	}
	if s.deploy != nil {
		rs = append(rs,
			route{"GET /v1/deploy", "", "latest revision, commit notes, per-PoP deployment", "deploy-status", s.handleDeployStatus},
			route{"POST /v1/deploy/canary", "", "{revision, pops}", "canary", s.handleDeployVerb("canary")},
			route{"POST /v1/deploy/promote", "", "{revision}", "promote", s.handleDeployVerb("promote")},
			route{"POST /v1/deploy/rollback", "", "{revision}", "rollback", s.handleDeployVerb("rollback")},
		)
	}
	if s.queries.Fleet != nil {
		rs = append(rs, route{"GET /v1/fleet", "", "PoPs and interconnections", "fleet", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, s.queries.Fleet())
		}})
	}
	if s.queries.RIB != nil {
		rs = append(rs, route{"GET /v1/rib", "?pop=P[&table=T][&prefix=X]", "routes at a PoP", "rib", s.handleRIB})
	}
	if s.queries.Health != nil {
		rs = append(rs, route{"GET /v1/health", "", "guard ladder report", "health", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, s.queries.Health())
		}})
	}
	if s.queries.Catchment != nil {
		rs = append(rs, route{"GET /v1/catchment", "[?prefix=X]", "anycast catchment map", "catchment", s.handleCatchment})
	}
	return rs
}

// Endpoints returns the mounted endpoint list, the /v1/ (and /) index
// payload.
func (s *Server) Endpoints() []string {
	var eps []string
	for _, r := range s.routes() {
		method, path, _ := strings.Cut(r.pattern, " ")
		eps = append(eps, fmt.Sprintf("%-6s %-40s %s", method, strings.TrimSuffix(path, "{$}")+r.hint, r.doc))
	}
	sort.Strings(eps)
	return eps
}

// Register mounts the API on mux.
func (s *Server) Register(mux *http.ServeMux) {
	for _, r := range s.routes() {
		mux.HandleFunc(r.pattern, s.count(r.label, r.handler))
	}
}

// count wraps a handler with the per-endpoint request counter.
func (s *Server) count(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mRequests.inc(name)
		h(w, r)
	}
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// statusFor maps store errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrConflict):
		return http.StatusConflict
	case errors.Is(err, ErrDeleting):
		return http.StatusConflict
	case errors.Is(err, ErrStoreFailed):
		// Fail-closed after a durable-log write error: the daemon must
		// restart and recover before accepting mutations again.
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// objectView is an object plus its convergence status, the shape every
// experiment endpoint returns.
type objectView struct {
	Object Object        `json:"object"`
	Status *ObjectStatus `json:"status,omitempty"`
}

func (s *Server) view(obj Object) objectView {
	v := objectView{Object: obj}
	if s.rec != nil {
		if st, ok := s.rec.ObjectStatusFor(obj.Spec.Name); ok {
			v.Status = &st
		}
	}
	return v
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Service   string   `json:"service"`
		Revision  int64    `json:"revision"`
		Endpoints []string `json:"endpoints"`
	}{"peering-ctlplane", s.store.Revision(), s.Endpoints()})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	objs := s.store.List()
	out := make([]objectView, 0, len(objs))
	for _, obj := range objs {
		out = append(out, s.view(obj))
	}
	writeJSON(w, http.StatusOK, struct {
		Revision    int64        `json:"revision"`
		Experiments []objectView `json:"experiments"`
	}{s.store.Revision(), out})
}

// maxBodyBytes bounds request bodies.
const maxBodyBytes = maxSpecBytes + 4096

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("ctlplane: %v", err))
		return nil, false
	}
	return body, true
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	spec, err := DecodeSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	dryRun := r.FormValue("dry_run") != "" && r.FormValue("dry_run") != "0"
	if s.rec != nil {
		// Platform-level validation (PoPs exist, no allocation clash)
		// runs on every create so errors surface synchronously instead
		// of as reconciler backoff.
		if err := s.rec.act.Validate(spec); err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	if dryRun {
		writeJSON(w, http.StatusOK, struct {
			Valid  bool `json:"valid"`
			DryRun bool `json:"dry_run"`
			Spec   Spec `json:"spec"`
		}{true, true, spec})
		return
	}
	obj, created, err := s.store.Create(spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	status := http.StatusOK // idempotent re-POST
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, s.view(obj))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	obj, err := s.store.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, s.view(obj))
}

// updateRequest is the PATCH body: the caller's revision (CAS gate) and
// the full replacement spec.
type updateRequest struct {
	Revision int64           `json:"revision"`
	Spec     json.RawMessage `json:"spec"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req updateRequest
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: bad update request: %v", err))
		return
	}
	if req.Revision == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: update requires the current revision (CAS)"))
		return
	}
	if len(req.Spec) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: update requires a spec"))
		return
	}
	spec, err := DecodeSpec(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.rec != nil {
		if err := s.rec.act.Validate(spec); err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	obj, err := s.store.Update(name, req.Revision, spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, s.view(obj))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var rev int64
	if raw := r.FormValue("revision"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: bad revision: %v", err))
			return
		}
		rev = n
	}
	obj, err := s.store.Delete(name, rev)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.view(obj))
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	var statuses []ObjectStatus
	if s.rec != nil {
		statuses = s.rec.Status()
	}
	writeJSON(w, http.StatusOK, struct {
		Revision    int64          `json:"revision"`
		Subscribers int            `json:"watch_subscribers"`
		Objects     []ObjectStatus `json:"objects"`
	}{s.store.Revision(), s.subscribers(), statuses})
}

func (s *Server) subscribers() int {
	if s.hub == nil {
		return 0
	}
	return s.hub.Subscribers()
}

// prefixParam parses the optional prefix= query parameter (the zero
// Prefix when absent), answering 400 itself when it is malformed.
func prefixParam(w http.ResponseWriter, r *http.Request) (netip.Prefix, bool) {
	raw := r.FormValue("prefix")
	if raw == "" {
		return netip.Prefix{}, true
	}
	p, err := netip.ParsePrefix(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: bad prefix: %v", err))
		return netip.Prefix{}, false
	}
	return p, true
}

func (s *Server) handleCatchment(w http.ResponseWriter, r *http.Request) {
	prefix, ok := prefixParam(w, r)
	if !ok {
		return
	}
	v, err := s.queries.Catchment(prefix)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleRIB(w http.ResponseWriter, r *http.Request) {
	pop := r.FormValue("pop")
	if pop == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: want pop=NAME"))
		return
	}
	table := r.FormValue("table")
	if table == "" {
		table = "experiments"
	}
	prefix, ok := prefixParam(w, r)
	if !ok {
		return
	}
	v, err := s.queries.RIB(pop, table, prefix)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// deployRequest is the body of the deploy verbs.
type deployRequest struct {
	Revision int64    `json:"revision"`
	PoPs     []string `json:"pops,omitempty"`
}

func (s *Server) handleDeployVerb(verb string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		var req deployRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: bad deploy request: %v", err))
			return
		}
		if req.Revision <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: deploy requires a positive revision"))
			return
		}
		var err error
		result := map[string]any{"verb": verb, "revision": req.Revision}
		switch verb {
		case "canary":
			if len(req.PoPs) == 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("ctlplane: canary requires pops"))
				return
			}
			err = s.store.Canary(req.Revision, req.PoPs, s.deploy)
			result["pops"] = req.PoPs
		case "promote":
			err = s.store.Promote(req.Revision, s.deploy)
		case "rollback":
			var newRev int64
			if newRev, err = s.store.Rollback(req.Revision); err == nil {
				result["new_revision"] = newRev
			}
		}
		// A failed canary/promote leaves a partial rollout, and a revision
		// that is unknown, no longer retained or does not validate leaves
		// none: either way the per-PoP truth rides along with the error.
		result["deployed"] = s.store.Deployed()
		if err != nil {
			result["error"] = err.Error()
			status := http.StatusConflict
			if errors.Is(err, ErrStoreFailed) {
				status = http.StatusServiceUnavailable
			}
			writeJSON(w, status, result)
			return
		}
		if s.hub != nil {
			s.hub.Publish(StreamDeploy, result)
		}
		writeJSON(w, http.StatusOK, result)
	}
}

func (s *Server) handleDeployStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Latest   int64            `json:"latest_revision"`
		Notes    map[int64]string `json:"notes"`
		Deployed map[string]int64 `json:"deployed"`
	}{s.store.Revision(), s.store.Notes(), s.store.Deployed()})
}
