package peering

import (
	"fmt"
	"maps"
	"math"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/ctlplane"
	"repro/internal/guard"
	"repro/internal/policy"
	"repro/internal/rib"
	"repro/internal/telemetry"
)

// ControlPlane is the reconciling control plane wired to a platform:
// the desired-state store, the reconciler converging it through an
// audited experiment client per spec, the watch hub fed by the
// platform's monitoring and health taps, and the /v1 HTTP API.
type ControlPlane struct {
	Platform   *Platform
	Store      *ctlplane.Store
	Hub        *ctlplane.Hub
	Reconciler *ctlplane.Reconciler
	API        *ctlplane.Server

	act       *platformActuator
	closeOnce sync.Once
}

// ControlPlaneConfig tunes the control plane.
type ControlPlaneConfig struct {
	// Reconciler tunes the convergence loop (zero values select the
	// ctlplane defaults).
	Reconciler ctlplane.ReconcilerConfig
	// EstablishTimeout bounds how long EnsureSession waits for a BGP
	// session to establish. Default 10s.
	EstablishTimeout time.Duration
	// StateDir, when set, makes the desired-state store durable: every
	// commit, deploy, and actuation is logged to a WAL under this
	// directory before it is acknowledged, and NewControlPlane replays
	// snapshot+log on startup so specs survive a crash.
	StateDir string
	// CrashHook, when set, is invoked at seeded crash points inside the
	// store's commit path (chaos testing). Production leaves it nil.
	CrashHook func(point string)
	// Logf receives control-plane logs (defaults to the platform's).
	Logf func(format string, args ...any)
}

// NewControlPlane builds and starts a control plane over the platform:
// the reconciler loop runs until Close. The API server is returned
// unmounted — register it on a mux (peeringd mounts it on the metrics
// listener). With a StateDir the desired state is recovered from the
// WAL first; recovery fails closed on a corrupt log.
func NewControlPlane(p *Platform, cfg ControlPlaneConfig) (*ControlPlane, error) {
	if cfg.Logf == nil {
		cfg.Logf = p.cfg.Logf
	}
	if cfg.Reconciler.Logf == nil {
		cfg.Reconciler.Logf = cfg.Logf
	}
	if cfg.EstablishTimeout <= 0 {
		cfg.EstablishTimeout = 10 * time.Second
	}
	act := &platformActuator{
		p:                p,
		establishTimeout: cfg.EstablishTimeout,
		runtimes:         make(map[string]*expRuntime),
		recovered:        make(map[ctlplane.AnnKey]string),
	}
	// Rejections recorded before this control plane answer no announce
	// of its own.
	_, act.auditSeq = p.Engine.AuditSince(math.MaxUint64)
	storeCfg := ctlplane.StoreConfig{
		// The platform half of every model the store derives for a deploy
		// verb; the experiment half is the store's own revision log, so
		// the §5 canary/promote/rollback machinery operates on exactly the
		// reconciled state.
		BaseModel: func() config.Model {
			return p.controlPlaneBaseModel(act.managedNames())
		},
		CrashHook: cfg.CrashHook,
	}
	var (
		store *ctlplane.Store
		rec   *ctlplane.RecoveredState
	)
	if cfg.StateDir != "" {
		var err error
		store, _, rec, err = ctlplane.RecoverStore(storeCfg, cfg.StateDir)
		if err != nil {
			return nil, err
		}
		// rec is nil on a pristine state directory: nothing to adopt.
		if rec != nil {
			cfg.Logf("control plane: recovered %d object(s) at revision %d, %d actuation record(s) from %s (wal seq %d)",
				len(rec.Objects), rec.NextRev, len(rec.Acts), cfg.StateDir, rec.Seq)
			// The WAL's actuation records are the proof obligations for
			// budget-free adoption: the reconciler re-claims a retained
			// route only when its fingerprint matches what was logged.
			maps.Copy(act.recovered, rec.Acts)
		}
	} else {
		store = ctlplane.NewStore(storeCfg)
	}
	hub := ctlplane.NewHub()
	store.OnChange(func(c ctlplane.Change) { hub.Publish(ctlplane.StreamStore, c) })
	reconciler := ctlplane.NewReconciler(store, act, hub, cfg.Reconciler)

	api := ctlplane.NewServer(ctlplane.ServerConfig{
		Store:      store,
		Reconciler: reconciler,
		Hub:        hub,
		Deploy: func(pop string, m config.Model) error {
			if p.PoP(pop) == nil {
				return fmt.Errorf("peering: unknown pop %s", pop)
			}
			m.SyncPolicy(p.Engine)
			return nil
		},
		Queries: ctlplane.Queries{
			Fleet:     p.fleetView,
			RIB:       p.ribView,
			Health:    func() any { return p.HealthReport() },
			Catchment: p.catchmentQuery(),
		},
		Logf: cfg.Logf,
	})

	// Tee the platform's monitoring feed and health-ladder transitions
	// into the watch hub. Both taps are non-blocking by construction
	// (the hub drops on full subscriber queues).
	p.SetEventSink(func(e telemetry.Event) { hub.Publish(ctlplane.StreamTelemetry, e) })
	p.SetHealthSink(func(pop string, s guard.State) {
		hub.Publish(ctlplane.StreamHealth, struct {
			PoP   string `json:"pop"`
			State string `json:"state"`
		}{pop, s.String()})
	})

	go reconciler.Run()
	return &ControlPlane{
		Platform: p, Store: store, Hub: hub,
		Reconciler: reconciler, API: api, act: act,
	}, nil
}

// Close stops the reconciler, detaches the platform taps, closes the
// watch hub (draining SSE handlers), and syncs and closes the WAL.
// Experiment state actuated so far is left running.
func (cp *ControlPlane) Close() {
	cp.closeOnce.Do(func() {
		cp.Platform.SetEventSink(nil)
		cp.Platform.SetHealthSink(nil)
		cp.Reconciler.Close()
		cp.Hub.Close()
		cp.Store.Close()
	})
}

// controlPlaneBaseModel renders the platform half of a derived model —
// its PoPs — plus any experiment approved outside the
// control plane (managed excludes control-plane-owned proposals, which
// the store's revision log supplies).
func (p *Platform) controlPlaneBaseModel(managed map[string]bool) config.Model {
	var m config.Model
	for _, name := range p.PoPs() {
		m.PoPs = append(m.PoPs, config.PoPSpec{Name: name})
	}
	for _, prop := range p.Proposals() {
		// prop.Managed covers recovered proposals whose runtime has not
		// been rebuilt yet (between restart and the first reconcile).
		if prop.Status != StatusApproved || managed[prop.Name] || prop.Managed {
			continue
		}
		m.Experiments = append(m.Experiments, config.ExperimentSpec{
			Name: prop.Name, Owner: prop.Owner,
			ASNs: prop.ASNs, Prefixes: prop.Prefixes,
			Caps: prop.Caps, Approved: true,
		})
	}
	return m
}

// fleetView is the /v1/fleet payload: PoPs with session/route counts
// and the provisioned backbone.
func (p *Platform) fleetView() any {
	type popRow struct {
		Name      string `json:"name"`
		Neighbors int    `json:"neighbors"`
		Routes    int    `json:"routes"`
		Health    string `json:"health"`
	}
	var pops []popRow
	for _, name := range p.PoPs() {
		pop := p.PoP(name)
		pops = append(pops, popRow{
			Name:      name,
			Neighbors: len(pop.Router.Neighbors()),
			Routes:    pop.Router.RouteCount(),
			Health:    p.PoPHealth(name).String(),
		})
	}
	return struct {
		ASN      uint32         `json:"asn"`
		PoPs     []popRow       `json:"pops"`
		Backbone []BackboneLink `json:"backbone"`
	}{p.cfg.ASN, pops, p.BackboneLinks()}
}

// ribView is the /v1/rib query hook: routes at one PoP from either the
// experiment-prefix table or the router-managed default table.
func (p *Platform) ribView(popName, table string, prefix netip.Prefix) (any, error) {
	pop := p.PoP(popName)
	if pop == nil {
		return nil, fmt.Errorf("peering: unknown pop %s", popName)
	}
	var t *rib.Table
	switch table {
	case "experiments":
		t = pop.Router.ExperimentRoutes()
	case "default":
		t = pop.Router.DefaultTable()
		if t == nil {
			return nil, fmt.Errorf("peering: pop %s does not maintain a default table", popName)
		}
	default:
		return nil, fmt.Errorf("peering: unknown table %q (want experiments or default)", table)
	}
	type routeRow struct {
		Prefix  string `json:"prefix"`
		ID      uint32 `json:"id"`
		Peer    string `json:"peer"`
		NextHop string `json:"next_hop,omitempty"`
		ASPath  string `json:"as_path,omitempty"`
	}
	row := func(pfx netip.Prefix, path *rib.Path) routeRow {
		r := routeRow{Prefix: pfx.String(), ID: uint32(path.ID), Peer: path.Peer}
		if path.Attrs != nil {
			if nh := path.NextHop(); nh.IsValid() {
				r.NextHop = nh.String()
			}
			r.ASPath = fmt.Sprintf("%v", path.Attrs.ASPathFlat())
		}
		return r
	}
	var routes []routeRow
	if prefix.IsValid() {
		for _, path := range t.Paths(prefix) {
			routes = append(routes, row(prefix, path))
		}
	} else {
		t.Walk(func(pfx netip.Prefix, paths []*rib.Path) bool {
			for _, path := range paths {
				routes = append(routes, row(pfx, path))
			}
			return true
		})
	}
	sort.Slice(routes, func(i, j int) bool {
		if routes[i].Prefix != routes[j].Prefix {
			return routes[i].Prefix < routes[j].Prefix
		}
		return routes[i].ID < routes[j].ID
	})
	return struct {
		PoP    string     `json:"pop"`
		Table  string     `json:"table"`
		Routes []routeRow `json:"routes"`
	}{popName, table, routes}, nil
}

// catchmentQuery returns the /v1/catchment hook, or nil when the
// platform has no TE configuration to measure against. The map is
// resolved for the population a running TE controller steers, else the
// configured one; with neither it is the per-PoP views alone.
func (p *Platform) catchmentQuery() func(netip.Prefix) (any, error) {
	te := p.cfg.TE
	if te == nil || !te.Prefix.IsValid() {
		return nil
	}
	return func(prefix netip.Prefix) (any, error) {
		if !prefix.IsValid() {
			prefix = te.Prefix
		}
		pops := te.Populations
		if ctl := p.teController.Load(); ctl != nil {
			pops = ctl.Populations()
		}
		if len(pops) == 0 {
			return p.CatchmentViews(prefix), nil
		}
		return p.ResolveCatchments(prefix, pops)
	}
}

// expRuntime is the actuator's per-experiment state: the audited client
// every actuation flows through, the PoPs it has opened, and the
// fingerprint each announcement atom was sent with.
type expRuntime struct {
	client *Client
	pops   map[string]bool
	sent   map[ctlplane.AnnKey]string
}

// platformActuator implements ctlplane.Actuator over a Platform. Each
// managed experiment gets a real experiment Client — registration goes
// through Submit/Approve, announcements through Client.Announce — so
// the policy engine evaluates and audits every control-plane actuation
// exactly like a researcher-issued one.
type platformActuator struct {
	p                *Platform
	establishTimeout time.Duration

	mu       sync.Mutex
	runtimes map[string]*expRuntime
	// recovered maps announcement atoms replayed from the WAL to the
	// fingerprint they were last actuated with. Adopt consumes entries
	// as proof that a graceful-restart-retained route still matches the
	// recovered desired state.
	recovered map[ctlplane.AnnKey]string
	// auditSeq is how far Observed has read the policy audit log.
	// Observed's goroutine only.
	auditSeq uint64
}

// managedNames snapshots the experiments the actuator owns.
func (a *platformActuator) managedNames() map[string]bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]bool, len(a.runtimes))
	for name := range a.runtimes {
		out[name] = true
	}
	return out
}

func (a *platformActuator) runtime(name string) *expRuntime {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.runtimes[name]
}

// Validate dry-runs a spec against platform state without actuating.
func (a *platformActuator) Validate(spec ctlplane.Spec) error {
	for _, pop := range spec.SessionPoPs() {
		if a.p.PoP(pop) == nil {
			return fmt.Errorf("peering: unknown pop %s", pop)
		}
	}
	if a.runtime(spec.Name) == nil {
		// The name must be free: an out-of-band proposal under this name
		// would collide at Submit time.
		a.p.mu.Lock()
		_, taken := a.p.proposals[spec.Name]
		a.p.mu.Unlock()
		if taken {
			return fmt.Errorf("peering: experiment name %s is taken by an existing proposal", spec.Name)
		}
	}
	return nil
}

// EnsureExperiment registers the experiment through the §4.6 workflow
// on first sight (proposal, approval, credential issue) and refreshes
// the enforcement registration on spec changes — without re-issuing
// credentials, so open tunnels survive updates.
func (a *platformActuator) EnsureExperiment(obj *ctlplane.Object) error {
	spec := obj.Spec
	caps := obj.Caps()
	prefixes := slices.Clone(obj.Allocation())
	rt := a.runtime(spec.Name)
	if rt == nil {
		plan := spec.Plan
		if plan == "" {
			plan = "managed by the control plane (declarative spec)"
		}
		if err := a.p.Submit(Proposal{
			Name: spec.Name, Owner: spec.Owner, Plan: plan,
			Prefixes: prefixes, ASNs: []uint32{spec.ASN}, Caps: caps,
			Managed: true,
		}); err != nil {
			// A Managed proposal surviving under this name is our own,
			// left behind by a crash: adopt it rather than failing, after
			// syncing its resource grant to the recovered spec so the
			// re-approval registers current state with enforcement.
			a.p.mu.Lock()
			prior := a.p.proposals[spec.Name]
			adoptable := prior != nil && prior.Managed
			if adoptable {
				prior.Prefixes = prefixes
				prior.ASNs = []uint32{spec.ASN}
			}
			a.p.mu.Unlock()
			if !adoptable {
				return err
			}
		}
		key, err := a.p.Approve(spec.Name, &caps)
		if err != nil {
			return err
		}
		rt = &expRuntime{
			client: NewClient(spec.Name, key, spec.ASN),
			pops:   make(map[string]bool),
			sent:   make(map[ctlplane.AnnKey]string),
		}
		// Advertise graceful restart so a control-plane crash leaves the
		// experiment's routes retained (stale) for the restart window,
		// where the recovered reconciler can adopt them in place.
		rt.client.GR = clientGRTime
		a.mu.Lock()
		a.runtimes[spec.Name] = rt
		a.mu.Unlock()
	} else {
		// Spec changed at the same identity: refresh the capability
		// grant and allocation in place.
		a.p.Engine.Register(&policy.Experiment{
			Name: spec.Name, Prefixes: prefixes,
			ASNs: []uint32{spec.ASN}, Caps: caps,
		})
	}
	// Pacing override applies to sessions started after this point.
	rt.client.MRAI = spec.Overrides.ParsedMRAI()
	return nil
}

// EnsureSession brings the experiment's tunnel and BGP session at a PoP
// to Established, repairing dead tunnels along the way.
func (a *platformActuator) EnsureSession(experiment, popName string) error {
	rt := a.runtime(experiment)
	if rt == nil {
		return fmt.Errorf("peering: experiment %s not registered", experiment)
	}
	pop := a.p.PoP(popName)
	if pop == nil {
		return fmt.Errorf("peering: unknown pop %s", popName)
	}
	if rt.client.BGPStatus(popName) != bgp.StateEstablished {
		if rt.client.TunnelStatus(popName) != "up" {
			// Either no tunnel or a dead one; clear any carcass and redial.
			_ = rt.client.CloseTunnel(popName)
			if err := rt.client.OpenTunnel(pop); err != nil {
				return err
			}
		}
		if rt.client.BGPStatus(popName) == bgp.StateIdle {
			_ = rt.client.StopBGP(popName) // drop a dead session object, if any
			if err := rt.client.StartBGP(popName); err != nil {
				return err
			}
		}
		if err := rt.client.WaitEstablished(popName, a.establishTimeout); err != nil {
			return err
		}
	}
	a.mu.Lock()
	rt.pops[popName] = true
	a.mu.Unlock()
	return nil
}

// annOptions translates a compiled announcement atom into client
// announce options (shared by Announce and Adopt, which must record
// identical state for replay).
func annOptions(ann ctlplane.CompiledAnn) []AnnounceOption {
	var opts []AnnounceOption
	if ann.Key.Version != 0 {
		opts = append(opts, WithVersion(ann.Key.Version))
	}
	if ann.Prepend > 0 {
		opts = append(opts, WithPrepend(ann.Prepend))
	}
	if len(ann.Poison) > 0 {
		opts = append(opts, WithPoison(ann.Poison...))
	}
	if len(ann.Communities) > 0 {
		comms := make([]bgp.Community, len(ann.Communities))
		for i, c := range ann.Communities {
			comms[i] = bgp.NewCommunity(c.ASN, c.Value)
		}
		opts = append(opts, WithCommunities(comms...))
	}
	if len(ann.ToNeighbors) > 0 {
		opts = append(opts, ToNeighbors(ann.ToNeighbors...))
	}
	if len(ann.ExceptNeighbors) > 0 {
		opts = append(opts, ExceptNeighbors(ann.ExceptNeighbors...))
	}
	return opts
}

// Announce actuates one announcement atom through the audited client.
// A PoP whose overload guard is shedding would treat the announcement
// as withdrawn, so it is refused before the send burns update budget.
func (a *platformActuator) Announce(ann ctlplane.CompiledAnn) error {
	rt := a.runtime(ann.Key.Experiment)
	if rt == nil {
		return fmt.Errorf("peering: experiment %s not registered", ann.Key.Experiment)
	}
	if a.p.PoPHealth(ann.Key.PoP) == guard.Shedding {
		return &ctlplane.RejectedError{Kind: ctlplane.RejectShedding,
			Reason: fmt.Sprintf("PoP %s is shedding new announcements (overload)", ann.Key.PoP)}
	}
	if err := rt.client.Announce(ann.Key.PoP, ann.Key.Prefix, annOptions(ann)...); err != nil {
		return err
	}
	a.mu.Lock()
	rt.sent[ann.Key] = ann.Fingerprint
	a.mu.Unlock()
	return nil
}

// expectedASPath is the flat AS path an announcement atom installs
// (buildAnnouncement's shape after policy strips nothing from the
// path): the experiment ASN repeated 1+prepend times, the poisoned
// ASNs, and a closing origin copy when poisoning.
func expectedASPath(asn uint32, ann ctlplane.CompiledAnn) []uint32 {
	path := make([]uint32, 0, ann.Prepend+len(ann.Poison)+2)
	for i := 0; i <= ann.Prepend; i++ {
		path = append(path, asn)
	}
	path = append(path, ann.Poison...)
	if len(ann.Poison) > 0 {
		path = append(path, asn)
	}
	return path
}

// Adopt re-claims a route retained across a control-plane restart
// (graceful restart keeps it installed, marked stale) without
// re-announcing it, so recovery does not burn the §4.7 update budget.
// The route must be proven to still match desired state: the WAL's
// recovered actuation fingerprint must equal the atom's current
// fingerprint AND the installed path's AS path must have the shape this
// atom would build. Anything less falls back to a normal re-announce
// via ErrAdoptMismatch.
func (a *platformActuator) Adopt(obj *ctlplane.Object, ann ctlplane.CompiledAnn) error {
	spec := obj.Spec
	rt := a.runtime(spec.Name)
	if rt == nil {
		return fmt.Errorf("peering: experiment %s not registered", spec.Name)
	}
	pop := a.p.PoP(ann.Key.PoP)
	if pop == nil {
		return fmt.Errorf("peering: unknown pop %s", ann.Key.PoP)
	}
	a.mu.Lock()
	logged, ok := a.recovered[ann.Key]
	a.mu.Unlock()
	if !ok || logged != ann.Fingerprint {
		return ctlplane.ErrAdoptMismatch
	}
	var installed *rib.Path
	for _, path := range pop.Router.ExperimentRoutes().Paths(ann.Key.Prefix) {
		if path.Peer == spec.Name && uint32(path.ID) == ann.Key.Version {
			installed = path
			break
		}
	}
	if installed == nil || installed.Attrs == nil ||
		!slices.Equal(installed.Attrs.ASPathFlat(), expectedASPath(spec.ASN, ann)) {
		return ctlplane.ErrAdoptMismatch
	}
	// Record the announcement client-side (replayed on reconnect exactly
	// like a sent one) and clear the stale mark router-side so neither
	// the restart-window flush nor a re-announce is needed.
	if err := rt.client.Adopt(ann.Key.PoP, ann.Key.Prefix, annOptions(ann)...); err != nil {
		return err
	}
	pop.Router.AdoptExperimentRoute(spec.Name, ann.Key.Prefix, bgp.PathID(ann.Key.Version))
	a.mu.Lock()
	rt.sent[ann.Key] = ann.Fingerprint
	delete(a.recovered, ann.Key)
	a.mu.Unlock()
	return nil
}

// Withdraw retracts one announcement atom.
func (a *platformActuator) Withdraw(experiment, popName string, prefix netip.Prefix, version uint32) error {
	rt := a.runtime(experiment)
	if rt == nil {
		return fmt.Errorf("peering: experiment %s not registered", experiment)
	}
	if err := rt.client.Withdraw(popName, prefix, version); err != nil {
		return err
	}
	a.mu.Lock()
	delete(rt.sent, ctlplane.AnnKey{Experiment: experiment, PoP: popName, Prefix: prefix, Version: version})
	a.mu.Unlock()
	return nil
}

// CloseSession tears the experiment's session and tunnel at a PoP down.
func (a *platformActuator) CloseSession(experiment, popName string) error {
	rt := a.runtime(experiment)
	if rt == nil {
		return nil
	}
	_ = rt.client.StopBGP(popName)
	_ = rt.client.CloseTunnel(popName)
	a.mu.Lock()
	delete(rt.pops, popName)
	maps.DeleteFunc(rt.sent, func(key ctlplane.AnnKey, _ string) bool { return key.PoP == popName })
	a.mu.Unlock()
	return nil
}

// Teardown removes the experiment entirely: sessions, credentials, and
// the proposal record, freeing the name for recreation.
func (a *platformActuator) Teardown(experiment string) error {
	rt := a.runtime(experiment)
	if rt != nil {
		a.mu.Lock()
		pops := make([]string, 0, len(rt.pops))
		for pop := range rt.pops {
			pops = append(pops, pop)
		}
		a.mu.Unlock()
		for _, pop := range pops {
			_ = rt.client.StopBGP(pop)
			_ = rt.client.CloseTunnel(pop)
		}
	}
	// Purge whatever the routers still hold for this owner — including
	// graceful-restart-retained routes of an orphan with no runtime
	// (its client died with the previous control-plane process).
	for _, popName := range a.p.PoPs() {
		a.p.PoP(popName).Router.PurgeExperiment(experiment)
	}
	a.p.Forget(experiment)
	a.mu.Lock()
	delete(a.runtimes, experiment)
	maps.DeleteFunc(a.recovered, func(key ctlplane.AnnKey, _ string) bool { return key.Experiment == experiment })
	a.mu.Unlock()
	return nil
}

// Observed reports ground truth for the managed experiments: session
// establishment straight from the BGP state machines, announcement
// presence from each PoP router's experiment RIB (the §4.1 authority on
// what is actually installed), fingerprinted by the actuator's own
// send records, and the engine's rejections from the policy audit log.
func (a *platformActuator) Observed(since uint64) (ctlplane.Observed, error) {
	audit, seq := a.p.Engine.AuditSince(a.auditSeq)
	obs := ctlplane.Observed{Gen: a.generation(seq)}
	if obs.Gen == since {
		return obs, nil
	}
	a.auditSeq = seq
	obs.Rejections = rejections(audit)
	obs.Sessions = make(map[ctlplane.SessKey]bool)
	obs.Anns = make(map[ctlplane.AnnKey]string)
	// Managed proposals without a runtime are crash leftovers: their
	// client died with the previous process, but their routes may still
	// be installed (graceful-restart retention). Include them so the
	// reconciler can adopt survivors and sweep orphans.
	leftover := make(map[string]bool)
	for _, prop := range a.p.Proposals() {
		leftover[prop.Name] = prop.Managed
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for name, rt := range a.runtimes {
		for pop := range rt.pops {
			if rt.client.BGPStatus(pop) == bgp.StateEstablished {
				obs.Sessions[ctlplane.SessKey{Experiment: name, PoP: pop}] = true
			}
		}
	}
	for _, popName := range a.p.PoPs() {
		a.p.PoP(popName).Router.ExperimentRoutes().Walk(func(prefix netip.Prefix, paths []*rib.Path) bool {
			for _, path := range paths {
				rt := a.runtimes[path.Peer]
				if rt == nil && !leftover[path.Peer] {
					continue
				}
				key := ctlplane.AnnKey{Experiment: path.Peer, PoP: popName, Prefix: prefix, Version: uint32(path.ID)}
				obs.Anns[key] = ""
				if rt != nil {
					obs.Anns[key] = rt.sent[key]
				}
			}
			return true
		})
	}
	return obs, nil
}

// generation digests the counters behind every input of Observed: the
// policy audit and proposal sequences, each PoP's experiment-table
// version and health state, and the BGP state of every managed session.
// A change to any of them changes it, barring a 64-bit collision. It
// takes locks but allocates nothing, so an idle reconcile tick is free.
func (a *platformActuator) generation(auditSeq uint64) uint64 {
	p := a.p
	p.mu.Lock()
	counters := auditSeq + p.proposalSeq
	var states uint64
	for name, pop := range p.pops {
		counters += pop.Router.ExperimentRoutes().Stats().Version
		if pop.health != nil {
			states += digest(name, "", uint64(pop.health.State()))
		}
	}
	p.mu.Unlock()
	a.mu.Lock()
	for name, rt := range a.runtimes {
		for pop := range rt.pops {
			states += digest(name, pop, uint64(rt.client.BGPStatus(pop)))
		}
	}
	a.mu.Unlock()
	// Counters only grow, so their sum changes whenever one does;
	// states are summed as hashes so map order does not matter.
	return max(counters*0x9e3779b97f4a7c15+states, 1)
}

// digest hashes one (name, pop, state) input of the generation (FNV-1a).
func digest(name, pop string, state uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, s := range [...]string{name, pop} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
		h = (h ^ 0xff) * prime // separator: ("ab", "c") is not ("a", "bc")
	}
	return (h ^ state) * prime
}

// rejections classifies the engine's refusals among audit entries, so
// the reconciler can surface why an actuation was refused (damping,
// rate limit, RPKI, generic policy) and when retrying makes sense.
func rejections(audit []policy.AuditEntry) []ctlplane.Rejection {
	var out []ctlplane.Rejection
	for _, e := range audit {
		if e.Action != policy.ActionReject {
			continue
		}
		reason := strings.Join(e.Reasons, "; ")
		kind := ctlplane.RejectPolicy
		switch {
		case strings.Contains(reason, "flap damping"):
			kind = ctlplane.RejectDamping
		case strings.Contains(reason, "update rate for"):
			kind = ctlplane.RejectRateLimit
		case strings.Contains(reason, "RPKI invalid"):
			kind = ctlplane.RejectRPKI
		}
		out = append(out, ctlplane.Rejection{
			Experiment: e.Experiment, PoP: e.PoP, Prefix: e.Prefix,
			Kind: kind, Reason: reason, At: e.Time,
		})
	}
	return out
}
