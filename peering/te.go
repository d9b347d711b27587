package peering

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"time"

	"repro/internal/catchment"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// TEConfig configures closed-loop traffic engineering: an anycast
// prefix, per-PoP load targets, and the population the catchment is
// measured against. It is set on PlatformConfig.TE (by peeringd from
// its flags), which NewTEController reads.
type TEConfig struct {
	// Prefix is the anycast prefix under engineering.
	Prefix netip.Prefix
	// Targets is the desired share of client weight per PoP (should
	// sum to ~1). Empty means equal shares across all PoPs.
	Targets map[string]float64
	// Clients is the synthetic population size placed across the
	// topology (cone-weighted) when Populations is nil.
	Clients int
	// Seed makes the population placement reproducible.
	Seed int64
	// Populations overrides generated placement.
	Populations []catchment.Population
	// Tolerance, MaxRounds, MaxPrepend, Patience tune the control loop
	// (see catchment.Config; zero selects the defaults).
	Tolerance  float64
	MaxRounds  int
	MaxPrepend int
	Patience   int
	// SettleTimeout bounds how long one observation waits for routing
	// to settle (default 10s).
	SettleTimeout time.Duration
	// PoPIngressBps is the modeled ingress capacity per PoP for the
	// traffic measurement (default 400e6, the paper's backbone
	// average).
	PoPIngressBps float64
	// PerClientBps is each client's demand in the traffic model
	// (default 1000 bps, keeping 100k-client demand near link scale).
	PerClientBps float64
	// Registry receives te_*/catchment_* metrics (default
	// telemetry.Default()).
	Registry *telemetry.Registry
}

// CatchmentViews snapshots every PoP's contribution to catchment
// resolution: its local neighbor set plus its experiment-FIB snapshot
// (built fresh, so the view reflects the routes of this instant).
func (p *Platform) CatchmentViews(prefix netip.Prefix) []catchment.PoPView {
	views := make([]catchment.PoPView, 0, len(p.PoPs()))
	for _, name := range p.PoPs() {
		pop := p.PoP(name)
		var refs []catchment.NeighborRef
		for _, n := range pop.Router.Neighbors() {
			if n.Remote {
				continue
			}
			refs = append(refs, catchment.NeighborRef{PoP: name, ID: n.ID, ASN: n.ASN})
		}
		sort.Slice(refs, func(i, j int) bool { return refs[i].ID < refs[j].ID })
		snap := pop.Router.ExperimentRoutes().BuildSnapshot()
		views = append(views, catchment.ViewFromFIB(name, snap, refs, prefix))
	}
	return views
}

// ResolveCatchments resolves where every population's best path lands
// right now, straight from the routers' FIB snapshots and the synthetic
// Internet's converged routes.
func (p *Platform) ResolveCatchments(prefix netip.Prefix, pops []catchment.Population) (*catchment.Map, error) {
	if p.cfg.Topology == nil {
		return nil, fmt.Errorf("peering: catchment resolution needs a topology")
	}
	views := p.CatchmentViews(prefix)
	return catchment.Resolve(p.cfg.Topology, p.cfg.ASN, prefix, views, pops), nil
}

// teActuator turns controller actions into client announcements. Each
// PoP owns one announcement version (a stable ADD-PATH ID) whose
// target-community whitelist is that PoP's local neighbors minus the
// vias shed so far — so per-PoP versions never fight each other, and
// every action lands in the policy engine's audit log as a regular
// announce or withdraw.
type teActuator struct {
	client *Client
	prefix netip.Prefix

	mu    sync.Mutex
	state map[string]*popAnnState
}

type popAnnState struct {
	version   uint32
	neighbors []catchment.NeighborRef // local neighbors, sorted by ID
	excluded  map[uint32]bool         // neighbor IDs shed by no-export
	prepend   int
	withdrawn bool
	announced bool // a version is currently on the wire
}

// AnnounceAll pushes every PoP's initial announcement (all local
// neighbors, no prepend).
func (a *teActuator) AnnounceAll() error {
	a.mu.Lock()
	pops := make([]string, 0, len(a.state))
	for pop := range a.state {
		pops = append(pops, pop)
	}
	a.mu.Unlock()
	sort.Strings(pops)
	for _, pop := range pops {
		if err := a.sync(pop); err != nil {
			return err
		}
	}
	return nil
}

// Apply implements catchment.Actuator.
func (a *teActuator) Apply(act catchment.Action) error {
	a.mu.Lock()
	st := a.state[act.PoP]
	if st == nil {
		a.mu.Unlock()
		return fmt.Errorf("peering: te action for unknown pop %s", act.PoP)
	}
	switch act.Kind {
	case catchment.ActionNoExport:
		id, ok := st.neighborID(act.Via)
		if !ok {
			a.mu.Unlock()
			return fmt.Errorf("peering: no neighbor AS%d at %s", act.Via, act.PoP)
		}
		st.excluded[id] = true
	case catchment.ActionReExport:
		id, ok := st.neighborID(act.Via)
		if !ok {
			a.mu.Unlock()
			return fmt.Errorf("peering: no neighbor AS%d at %s", act.Via, act.PoP)
		}
		delete(st.excluded, id)
	case catchment.ActionPrepend:
		st.prepend = act.Prepend
	case catchment.ActionWithdraw:
		st.withdrawn = true
	case catchment.ActionAnnounce:
		st.withdrawn = false
	default:
		a.mu.Unlock()
		return fmt.Errorf("peering: unknown te action %v", act.Kind)
	}
	a.mu.Unlock()
	return a.sync(act.PoP)
}

func (st *popAnnState) neighborID(asn uint32) (uint32, bool) {
	for _, n := range st.neighbors {
		if n.ASN == asn {
			return n.ID, true
		}
	}
	return 0, false
}

// sync pushes one PoP's current desired state onto the wire. An empty
// whitelist means "export to everyone" in the community scheme, so a
// PoP with every neighbor excluded — or an explicit withdraw — sends a
// version withdraw instead.
func (a *teActuator) sync(pop string) error {
	a.mu.Lock()
	st := a.state[pop]
	allowed := make([]uint32, 0, len(st.neighbors))
	for _, n := range st.neighbors {
		if !st.excluded[n.ID] {
			allowed = append(allowed, n.ID)
		}
	}
	version := st.version
	prepend := st.prepend
	down := st.withdrawn || len(allowed) == 0
	wasAnnounced := st.announced
	st.announced = !down
	a.mu.Unlock()

	if down {
		if !wasAnnounced {
			return nil
		}
		return a.client.Withdraw(pop, a.prefix, version)
	}
	opts := []AnnounceOption{WithVersion(version), ToNeighbors(allowed...)}
	if prepend > 0 {
		opts = append(opts, WithPrepend(prepend))
	}
	return a.client.Announce(pop, a.prefix, opts...)
}

// TEController runs the closed-loop controller against a live platform
// through an experiment client.
type TEController struct {
	platform *Platform
	client   *Client
	cfg      TEConfig
	act      *teActuator
	pops     []catchment.Population

	mu     sync.Mutex
	result *catchment.Result
	rounds []catchment.Round
}

// NewTEController wires a controller from PlatformConfig.TE (its zero
// fields select the defaults): the population is generated if not
// supplied, and the client must already have open tunnels and
// established BGP at every PoP.
func (p *Platform) NewTEController(client *Client) (*TEController, error) {
	var base TEConfig
	if p.cfg.TE != nil {
		base = *p.cfg.TE
	}
	if !base.Prefix.IsValid() {
		return nil, fmt.Errorf("peering: TE needs a prefix")
	}
	if base.Clients == 0 && base.Populations == nil {
		base.Clients = 100000
	}
	if base.SettleTimeout <= 0 {
		base.SettleTimeout = 10 * time.Second
	}
	if base.PoPIngressBps <= 0 {
		base.PoPIngressBps = 400e6
	}
	if base.PerClientBps <= 0 {
		base.PerClientBps = 1000
	}
	if base.Registry == nil {
		base.Registry = telemetry.Default()
	}
	if len(base.Targets) == 0 {
		names := p.PoPs()
		base.Targets = make(map[string]float64, len(names))
		for _, name := range names {
			base.Targets[name] = 1 / float64(len(names))
		}
	}

	pops := base.Populations
	if pops == nil {
		if p.cfg.Topology == nil {
			return nil, fmt.Errorf("peering: TE population generation needs a topology")
		}
		pops = catchment.GeneratePopulations(p.cfg.Topology, base.Clients, base.Seed)
	}

	act := &teActuator{
		client: client,
		prefix: base.Prefix,
		state:  make(map[string]*popAnnState),
	}
	for i, name := range p.PoPs() {
		pop := p.PoP(name)
		var refs []catchment.NeighborRef
		for _, n := range pop.Router.Neighbors() {
			if n.Remote {
				continue
			}
			refs = append(refs, catchment.NeighborRef{PoP: name, ID: n.ID, ASN: n.ASN})
		}
		sort.Slice(refs, func(a, b int) bool { return refs[a].ID < refs[b].ID })
		act.state[name] = &popAnnState{
			version:   uint32(i + 1),
			neighbors: refs,
			excluded:  make(map[uint32]bool),
		}
	}
	te := &TEController{platform: p, client: client, cfg: base, act: act, pops: pops}
	p.teController.Store(te)
	return te, nil
}

// Populations returns the client placement under engineering.
func (te *TEController) Populations() []catchment.Population { return te.pops }

// observe waits for the platform to quiesce (propagation is
// asynchronous), then resolves the catchment once and measures per-PoP
// load with the traffic model.
func (te *TEController) observe() (catchment.Observation, error) {
	ctx, cancel := context.WithTimeout(context.Background(), te.cfg.SettleTimeout)
	defer cancel()
	if err := te.platform.Quiesce(ctx); err != nil {
		return catchment.Observation{}, err
	}
	m, err := te.platform.ResolveCatchments(te.cfg.Prefix, te.pops)
	if err != nil {
		return catchment.Observation{}, err
	}
	load, err := te.measureLoad(m)
	if err != nil {
		return catchment.Observation{}, err
	}
	return catchment.Observation{Map: m, LoadBps: load}, nil
}

// measureLoad runs the fluid traffic model for the current catchment:
// one capacity-constrained ingress link per PoP, one aggregate flow per
// (PoP, entry-neighbor) group with demand proportional to its client
// weight. The achieved per-PoP goodput is what the paper's iperf3-style
// measurements would see.
func (te *TEController) measureLoad(m *catchment.Map) (map[string]float64, error) {
	sim := traffic.NewSim()
	type popFlow struct {
		pop  string
		flow *traffic.Flow
	}
	var flows []popFlow
	for _, pop := range m.PoPNames() {
		ingress := traffic.Link{
			Name: "ingress:" + pop, CapacityBps: te.cfg.PoPIngressBps,
			Latency: 10 * time.Millisecond,
		}
		weights := m.ViaWeightsOf(pop, te.pops)
		vias := make([]uint32, 0, len(weights))
		for via := range weights {
			vias = append(vias, via)
		}
		sort.Slice(vias, func(i, j int) bool { return vias[i] < vias[j] })
		for _, via := range vias {
			demand := float64(weights[via]) * te.cfg.PerClientBps
			if demand <= 0 {
				continue
			}
			tail := traffic.Link{
				Name: fmt.Sprintf("demand:%s:as%d", pop, via), CapacityBps: demand,
				Latency: 5 * time.Millisecond,
			}
			f, err := sim.AddFlow(fmt.Sprintf("%s-as%d", pop, via), []traffic.Link{tail, ingress})
			if err != nil {
				return nil, err
			}
			flows = append(flows, popFlow{pop, f})
		}
	}
	if len(flows) == 0 {
		return map[string]float64{}, nil
	}
	sim.Run(1 * time.Second)      // warmup
	d := sim.Run(2 * time.Second) // measured
	load := make(map[string]float64)
	for _, pf := range flows {
		load[pf.pop] += pf.flow.ThroughputBps(d)
	}
	return load, nil
}

// Run announces the anycast prefix at every PoP and drives the
// observe→decide→act loop to convergence or an infeasibility
// certificate. The result (including full round history) is retained
// for Status.
func (te *TEController) Run() (*catchment.Result, error) {
	if err := te.act.AnnounceAll(); err != nil {
		return nil, err
	}
	ctl, err := catchment.NewController(catchment.Config{
		Targets:     te.cfg.Targets,
		Tolerance:   te.cfg.Tolerance,
		MaxRounds:   te.cfg.MaxRounds,
		MaxPrepend:  te.cfg.MaxPrepend,
		Patience:    te.cfg.Patience,
		Populations: te.pops,
		Registry:    te.cfg.Registry,
		Logf:        te.platform.cfg.Logf,
	}, func() (catchment.Observation, error) {
		obs, err := te.observe()
		if err == nil {
			te.mu.Lock()
			te.rounds = append(te.rounds, catchment.Round{
				N: len(te.rounds) + 1, Imbalance: obs.Map.Imbalance(te.cfg.Targets),
				Shares: obs.Map.Shares(), LoadBps: obs.LoadBps,
			})
			te.mu.Unlock()
		}
		return obs, err
	}, te.act)
	if err != nil {
		return nil, err
	}
	res, err := ctl.Run()
	te.mu.Lock()
	te.result = res
	te.mu.Unlock()
	return res, err
}

// TEStatus is the inspectable controller state (the peeringd /te/status
// surface).
type TEStatus struct {
	Prefix    string                 `json:"prefix"`
	Targets   map[string]float64     `json:"targets"`
	Running   bool                   `json:"running"`
	Converged bool                   `json:"converged"`
	Rounds    []catchment.Round      `json:"rounds"`
	Cert      *catchment.Certificate `json:"certificate,omitempty"`
}

// Status reports the controller's progress; safe to call concurrently
// with Run.
func (te *TEController) Status() TEStatus {
	te.mu.Lock()
	defer te.mu.Unlock()
	st := TEStatus{
		Prefix:  te.cfg.Prefix.String(),
		Targets: te.cfg.Targets,
		Running: te.result == nil,
	}
	if te.result != nil {
		st.Converged = te.result.Converged
		st.Rounds = te.result.Rounds
		st.Cert = te.result.Certificate
	} else {
		st.Rounds = append([]catchment.Round(nil), te.rounds...)
	}
	return st
}
