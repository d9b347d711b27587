// Package peering is the public API of the platform reproduction: it
// assembles vBGP routers, the enforcement engine, tunnels, the
// management workflow, and the experiment toolkit into a turn-key
// testbed equivalent to the system the paper operates (§4).
//
// A Platform owns the pieces shared across PoPs — the AS number, the
// security enforcement engine, the global neighbor pool, experiment
// credentials, and the synthetic Internet topology. PoPs are added with
// AddPoP and interconnected with ConnectBackbone; neighbors attach via
// the inet and ixp packages or raw BGP transports. Experiments are
// proposed, reviewed, and approved (§4.6), then drive everything through
// a Client: tunnels, BGP sessions, announcements with community-steered
// export, AS-path manipulation, and per-packet egress selection (Table
// 1 and §3.2).
package peering

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bpf"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/history"
	"repro/internal/inet"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/rpki"
	"repro/internal/telemetry"
	"repro/internal/tunnel"
)

// PlatformConfig configures a platform.
type PlatformConfig struct {
	// ASN is the platform's primary AS number (Peering's is 47065).
	ASN uint32
	// GlobalPool is the platform-wide neighbor pool; defaults to
	// 127.127.0.0/16.
	GlobalPool netip.Prefix
	// Topology is the synthetic Internet neighbors are drawn from. May
	// be nil for hand-wired setups.
	Topology *inet.Topology
	// Chaos, when set, threads every BGP transport, tunnel carrier, and
	// backbone attachment through the fault injector, and switches the
	// sessions it covers, in-process experiment clients' included, to
	// resilient mode (supervised redial with backoff, graceful restart).
	// Nil leaves the platform fault-free with the original one-shot
	// sessions.
	Chaos *chaos.Injector
	// RPKI, when set, is the platform's trust-anchor ROA store. The
	// enforcement engine validates experiment announcements against it
	// directly, and every PoP's router runs a live RTR client session to
	// it (threaded through the fault injector as class "rtr"), tagging
	// experiment-exported routes with their validation state.
	RPKI *rpki.Store
	// RPKIStaleExpiry overrides the RTR clients' freshness window after
	// session loss (zero selects rpki.DefaultStaleExpiry).
	RPKIStaleExpiry time.Duration
	// Damping, when set, enables RFC 2439 route-flap damping at both
	// layers: the enforcement engine suppresses flapping experiment
	// announcements platform-wide, and every PoP router damps flapping
	// neighbor routes (withheld from experiments, retained in the
	// adj-RIB-in, re-exported when the penalty decays).
	Damping *guard.DampingConfig
	// NeighborMRAI paces UPDATE batches on every PoP's neighbor and
	// backbone sessions (RFC 4271 §9.2.1.1 coalescing). Zero disables
	// pacing.
	NeighborMRAI time.Duration
	// Guard, when set, runs the overload watchdog: per-PoP pressure
	// sampling driving healthy → degraded → shedding transitions with
	// hysteretic recovery. See GuardConfig and DefaultGuardConfig.
	Guard *GuardConfig
	// History, when set, receives a copy of every monitoring event:
	// route events land in the durable segment log for time-travel
	// queries and post-hoc forensics. The caller opens the store
	// (history.Open) and the platform adopts it; Close closes it.
	History *history.Store
	// TE configures closed-loop traffic engineering: the anycast
	// prefix, per-PoP load targets, and the synthetic client population
	// the catchment is measured against. NewTEController reads it.
	TE *TEConfig
	// Logf receives platform event logs.
	Logf func(format string, args ...any)
}

// Platform is a running testbed.
type Platform struct {
	cfg    PlatformConfig
	Engine *policy.Engine

	globalPool *core.Pool
	monitor    *telemetry.Emitter
	rpkiServer *rpki.Server

	mu             sync.Mutex
	pops           map[string]*PoP
	creds          tunnel.Credentials
	proposals      map[string]*Proposal
	proposalSeq    uint64 // bumped when a proposal is filed or forgotten
	nextNeighborID uint32
	keySeq         int
	backbone       *netsim.Segment
	bbHosts        int
	bbLinks        map[[2]string]BackboneLink

	guardStop   chan struct{}
	guardOnce   sync.Once
	monitorDone chan struct{}
	// monitored counts the events the monitor goroutine has finished
	// with; WaitMonitorDrained compares it with the emitter's accepted
	// count.
	monitored atomic.Uint64
	still     atomic.Uint64 // what quiesced saw on its previous call

	// allocMu orders every change to an experiment's registration with
	// the enforcement engine and the compiled allocation published to
	// its tunnel taps; alloc holds, per experiment, the program its open
	// taps read (see register).
	allocMu sync.Mutex
	alloc   map[string]*atomic.Pointer[bpf.Program]

	// teController is the most recent NewTEController result: the
	// /v1/catchment query resolves for the population it steers.
	teController atomic.Pointer[TEController]

	// sinkMu guards the optional control-plane taps: eventSink receives
	// a copy of every monitoring event, healthSink every guard-ladder
	// transition. Both may be nil.
	sinkMu     sync.RWMutex
	eventSink  func(telemetry.Event)
	healthSink func(pop string, state guard.State)
}

// NewPlatform creates a platform with an empty footprint.
func NewPlatform(cfg PlatformConfig) *Platform {
	if !cfg.GlobalPool.IsValid() {
		cfg.GlobalPool = core.DefaultGlobalPool
	}
	p := &Platform{
		cfg:        cfg,
		Engine:     policy.NewEngine(cfg.ASN),
		globalPool: core.NewPool(cfg.GlobalPool),
		monitor:    telemetry.NewEmitter(nil, 0),
		pops:       make(map[string]*PoP),
		creds:      make(tunnel.Credentials),
		proposals:  make(map[string]*Proposal),
		alloc:      make(map[string]*atomic.Pointer[bpf.Program]),
	}
	// One goroutine consumes every router's BMP-style event feed: the
	// history store appends it, the event sink gets a copy. When it falls
	// behind (a slow disk), the emitter's queue — the only one — drops.
	p.monitorDone = make(chan struct{})
	go func() {
		defer close(p.monitorDone)
		for e := range p.monitor.Events() {
			if cfg.History != nil {
				cfg.History.Append(e)
			}
			p.sinkMu.RLock()
			sink := p.eventSink
			p.sinkMu.RUnlock()
			if sink != nil {
				sink(e)
			}
			p.monitored.Add(1)
		}
	}()
	if cfg.RPKI != nil {
		// The controller holds the authoritative trust-anchor view: the
		// enforcement engine validates against it directly, while PoP
		// routers sync their own caches over RTR (see AddPoP).
		p.rpkiServer = rpki.NewServer(cfg.RPKI, 1)
		p.Engine.SetValidator(cfg.RPKI)
	}
	if cfg.Damping != nil {
		// The engine's damper is platform-wide (keyed experiment@pop) and
		// separate from the per-router neighbor dampers AddPoP creates.
		p.Engine.SetDamper(guard.NewDamper(*cfg.Damping))
	}
	if cfg.Guard != nil {
		interval := cfg.Guard.SampleInterval
		if interval <= 0 {
			interval = 250 * time.Millisecond
		}
		p.guardStop = make(chan struct{})
		go p.runGuard(interval)
	}
	return p
}

// DeployROV installs the trust-anchor store as the topology's validator
// and enables route origin validation at a deterministic fraction of
// its ASes. Returns how many ASes now validate (0 without a topology or
// RPKI store).
func (p *Platform) DeployROV(fraction float64, seed int64) int {
	if p.cfg.Topology == nil || p.cfg.RPKI == nil {
		return 0
	}
	p.cfg.Topology.SetValidator(p.cfg.RPKI)
	return p.cfg.Topology.DeployROV(fraction, seed)
}

// SetEventSink installs (or, with nil, removes) a tap receiving a copy
// of every monitoring event after the history store consumes it. The
// sink runs on the monitor goroutine and must not block — the control
// plane's watch hub (bounded, drop-on-full) is the intended consumer.
func (p *Platform) SetEventSink(fn func(telemetry.Event)) {
	p.sinkMu.Lock()
	p.eventSink = fn
	p.sinkMu.Unlock()
}

// SetHealthSink installs (or removes) a tap receiving every guard
// health-ladder transition as it is applied.
func (p *Platform) SetHealthSink(fn func(pop string, state guard.State)) {
	p.sinkMu.Lock()
	p.healthSink = fn
	p.sinkMu.Unlock()
}

// History returns the platform's durable RIB history store, or nil.
func (p *Platform) History() *history.Store { return p.cfg.History }

// WaitMonitorDrained blocks until the monitor goroutine has handed
// every event accepted so far to the history store and the event sink
// (or the timeout lapses), for readers of monitoring state right after
// control-plane churn.
func (p *Platform) WaitMonitorDrained(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for p.monitored.Load() < p.monitor.Accepted() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// quiesceEvery spaces Quiesce's observations: two that agree can miss
// only a producer stalled longer than this between two messages.
const quiesceEvery = 5 * time.Millisecond

// Quiesce blocks until the platform is at rest, or ctx is done: two
// consecutive observations agree that every PoP router is at rest
// (core.Router.Quiesced), and so is every session whose far end the
// platform owns (speakers, route servers, in-process clients), no client
// table changed, and the monitor goroutine has finished every event the
// emitter accepted. Call it where propagation time would be guessed.
func (p *Platform) Quiesce(ctx context.Context) error {
	t := time.NewTicker(quiesceEvery)
	defer t.Stop()
	for !p.quiesced() {
		select {
		case <-ctx.Done():
			return fmt.Errorf("peering: platform did not quiesce: %w", ctx.Err())
		case <-t.C:
		}
	}
	return nil
}

// quiesced is one observation of Quiesce, true when it and the previous
// one are at rest and agree.
func (p *Platform) quiesced() bool {
	sum := p.monitored.Load()
	quiet := sum == p.monitor.Accepted()
	for _, name := range p.PoPs() {
		pop := p.PoP(name)
		quiet = pop.Router.Quiesced() && quiet
		pop.mu.Lock()
		speakers, servers, clients := slices.Clone(pop.speakers), slices.Clone(pop.servers), slices.Clone(pop.clients)
		pop.mu.Unlock()
		for _, sp := range speakers {
			quiet = sp.Session().Quiesced() && quiet
		}
		for _, rs := range servers {
			quiet = rs.Session().Quiesced() && quiet
		}
		for _, pc := range clients {
			if s := pc.session(); s != nil {
				quiet = s.Quiesced() && quiet
			}
			sum += pc.table.Stats().Version
		}
	}
	var sig uint64 // 0: busy; else the sum, shifted, low bit set
	if quiet {
		sig = sum<<1 | 1
	}
	return p.still.Swap(sig) == sig && quiet
}

// Close shuts the platform's shared services down: the guard watchdog,
// the monitoring feed, and — when configured — the history store, whose
// active segment is sealed so the on-disk log alone reconstructs the
// run. Routers keep working; their subsequent monitor emissions drop.
func (p *Platform) Close() error {
	p.StopGuard()
	p.monitor.Close()
	// Wait for the monitor goroutine to drain the monitor queue before
	// closing the store, so the tail of the feed reaches the log.
	<-p.monitorDone
	if p.cfg.History != nil {
		return p.cfg.History.Close()
	}
	return nil
}

// ASN returns the platform AS number.
func (p *Platform) ASN() uint32 { return p.cfg.ASN }

// chaosWrap threads a transport through the fault injector (a no-op
// without one).
func (p *Platform) chaosWrap(class, name, popName string, conn net.Conn) net.Conn {
	return p.cfg.Chaos.WrapConn(class, name, popName, conn)
}

// resilient reports whether platform sessions should supervise their
// transports (on whenever a fault injector is present).
func (p *Platform) resilient() bool { return p.cfg.Chaos != nil }

// Topology returns the synthetic Internet, or nil.
func (p *Platform) Topology() *inet.Topology { return p.cfg.Topology }

// NextNeighborID allocates a platform-wide neighbor ID (the community
// value experiments use to steer announcements).
func (p *Platform) NextNeighborID() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextNeighborID++
	return p.nextNeighborID
}

// PoP returns the named PoP, or nil.
func (p *Platform) PoP(name string) *PoP {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pops[name]
}

// PoPs returns all PoP names, sorted.
func (p *Platform) PoPs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.pops))
	for name := range p.pops {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// PoPConfig configures one point of presence.
type PoPConfig struct {
	// Name of the PoP, e.g. "amsix".
	Name string
	// RouterID of its vBGP router.
	RouterID netip.Addr
	// LocalPool is the PoP's next-hop pool; must be distinct per PoP.
	LocalPool netip.Prefix
	// ExpLAN is the experiment-LAN prefix; the router takes .254.
	ExpLAN netip.Prefix
	// MaintainDefaultTable enables the router-managed best-path table
	// (the Fig. 6a ablation).
	MaintainDefaultTable bool
	// BandwidthLimitBps shapes all experiment traffic entering the PoP,
	// modeling the paper's two bandwidth-constrained sites (§4.7). Zero
	// means unconstrained.
	BandwidthLimitBps float64
}

// AddPoP creates a PoP with its vBGP router and experiment LAN.
func (p *Platform) AddPoP(cfg PoPConfig) (*PoP, error) {
	p.mu.Lock()
	if _, dup := p.pops[cfg.Name]; dup {
		p.mu.Unlock()
		return nil, fmt.Errorf("peering: duplicate pop %s", cfg.Name)
	}
	p.mu.Unlock()

	// Per-PoP RTR client: the router validates through its own live
	// cache, synchronized from the platform's trust anchor over a
	// fault-injectable session (class "rtr"). The session doubles as a
	// flappable chaos link: taking it down severs the live session and
	// fails every redial until it comes back up, modeling a cache
	// outage (the fail-closed scenario).
	var rtr *rpki.Client
	var validator rpki.Validator
	if p.cfg.RPKI != nil {
		var rtrMu sync.Mutex
		var rtrDown bool
		var rtrConn net.Conn
		rtr = rpki.NewClient(rpki.ClientConfig{
			Name: cfg.Name,
			Dial: func() (net.Conn, error) {
				rtrMu.Lock()
				down := rtrDown
				rtrMu.Unlock()
				if down {
					return nil, fmt.Errorf("rtr[%s]: cache unreachable (link down)", cfg.Name)
				}
				cc, cs := newConnPair()
				cc = p.chaosWrap("rtr", "rtr-"+cfg.Name, cfg.Name, cc)
				go func() { _ = p.rpkiServer.Serve(cs) }()
				rtrMu.Lock()
				rtrConn = cc
				rtrMu.Unlock()
				return cc, nil
			},
			StaleExpiry: p.cfg.RPKIStaleExpiry,
			Logf:        p.cfg.Logf,
		})
		p.cfg.Chaos.RegisterLink("rtr-"+cfg.Name, cfg.Name,
			func() {
				rtrMu.Lock()
				rtrDown = true
				conn := rtrConn
				rtrMu.Unlock()
				if conn != nil {
					conn.Close()
				}
			},
			func() {
				rtrMu.Lock()
				rtrDown = false
				rtrMu.Unlock()
			})
		validator = rtr
	}

	router := core.NewRouter(core.Config{
		Name: cfg.Name, ASN: p.cfg.ASN, RouterID: cfg.RouterID,
		LocalPool: cfg.LocalPool, GlobalPool: p.globalPool,
		Enforcer:             p.Engine,
		Monitor:              p.monitor,
		Validator:            validator,
		MaintainDefaultTable: cfg.MaintainDefaultTable,
		Damping:              p.cfg.Damping,
		NeighborMRAI:         p.cfg.NeighborMRAI,
		Logf:                 p.cfg.Logf,
	})
	if rtr != nil {
		// A ROA change converging over RTR re-stamps and re-exports the
		// routes whose validation state flipped — no session restart.
		rtr.SetOnChange(router.RevalidateExports)
	}
	pop := &PoP{
		Name:     cfg.Name,
		Router:   router,
		RPKI:     rtr,
		platform: p,
		expLAN:   netsim.NewSegment(cfg.Name + "-exp-lan"),
		expCIDR:  cfg.ExpLAN,
	}
	if p.cfg.Guard != nil {
		// Chain the platform's shed actions before any user OnChange so
		// state transitions always execute the ladder.
		hc := p.cfg.Guard.Health
		userChange := hc.OnChange
		if hc.Logf == nil {
			hc.Logf = p.cfg.Logf
		}
		hc.OnChange = func(from, to guard.State, why string) {
			p.applyHealthState(pop, to)
			if userChange != nil {
				userChange(from, to, why)
			}
		}
		pop.health = guard.NewHealth(cfg.Name, hc)
		// Baseline the rate window at creation so a burst landing before
		// the watchdog's first tick still registers.
		pop.guardPrevAt = time.Now()
	}
	routerAddr := lastUsable(cfg.ExpLAN)
	expIfc := router.AddInterface("exp0", "experiment", netip.PrefixFrom(routerAddr, cfg.ExpLAN.Bits()), pop.expLAN)
	if cfg.BandwidthLimitBps > 0 {
		expIfc.AddIngressFilter(netsim.NewTokenBucketFilter(cfg.BandwidthLimitBps, 0))
	}

	p.mu.Lock()
	p.pops[cfg.Name] = pop
	p.mu.Unlock()
	return pop, nil
}

// lastUsable returns the .254-style address of a v4 prefix.
func lastUsable(p netip.Prefix) netip.Addr {
	raw := p.Masked().Addr().As4()
	host := uint32(1)<<(32-p.Bits()) - 2
	v := uint32(raw[0])<<24 | uint32(raw[1])<<16 | uint32(raw[2])<<8 | uint32(raw[3])
	v += host
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// Backbone returns the platform's shared backbone segment (the AL2S
// equivalent, §4.3), created on first use.
func (p *Platform) Backbone() *netsim.Segment {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.backbone == nil {
		p.backbone = netsim.NewSegment("backbone")
	}
	return p.backbone
}

// meshGRTime and neighborGRTime are the graceful-restart windows used
// for resilient platform sessions (chaos mode): long enough for the
// supervisor's backoff to reconnect well within the window.
const (
	meshGRTime     = 10 * time.Second
	neighborGRTime = 10 * time.Second
)

// ConnectBackbone joins two PoPs over the backbone: both routers attach
// to the shared segment (once each), a mesh BGP session comes up between
// them, and the pair's provisioned capacity and latency are recorded for
// the traffic model (§4.3, §4.4, §6). With a fault injector configured
// the session is supervised: PoP a redials after transport loss and PoP
// b accepts the replacement, with graceful restart retaining state
// across the flap.
func (p *Platform) ConnectBackbone(a, b *PoP, capacityBps float64, latency time.Duration) error {
	seg := p.Backbone()
	addrA := p.backboneAttach(a, seg)
	addrB := p.backboneAttach(b, seg)

	linkName := a.Name + "-" + b.Name
	ca, cb := newConnPair()
	ca = p.chaosWrap("backbone", linkName, a.Name, ca)
	cb = p.chaosWrap("backbone", linkName, b.Name, cb)
	if p.resilient() {
		if err := a.Router.AddBackbonePeerConfig(core.BackbonePeerConfig{
			Name: b.Name, Addr: addrB, Conn: ca,
			GracefulRestart: meshGRTime,
			Redial: func() (net.Conn, error) {
				na, nb := newConnPair()
				na = p.chaosWrap("backbone", linkName, a.Name, na)
				nb = p.chaosWrap("backbone", linkName, b.Name, nb)
				if err := b.Router.AcceptBackbonePeerConn(a.Name, nb); err != nil {
					return nil, err
				}
				return na, nil
			},
		}); err != nil {
			return err
		}
		if err := b.Router.AddBackbonePeerConfig(core.BackbonePeerConfig{
			Name: a.Name, Addr: addrA, Conn: cb,
			Resilient: true, GracefulRestart: meshGRTime,
		}); err != nil {
			return err
		}
	} else {
		if err := a.Router.AddBackbonePeer(b.Name, addrB, ca); err != nil {
			return err
		}
		if err := b.Router.AddBackbonePeer(a.Name, addrA, cb); err != nil {
			return err
		}
	}
	p.mu.Lock()
	if p.bbLinks == nil {
		p.bbLinks = make(map[[2]string]BackboneLink)
	}
	p.bbLinks[linkKey(a.Name, b.Name)] = BackboneLink{
		A: a.Name, B: b.Name, CapacityBps: capacityBps, Latency: latency,
	}
	p.mu.Unlock()
	return nil
}

// backboneAttach gives a PoP its backbone interface if missing and
// returns its backbone address.
func (p *Platform) backboneAttach(pop *PoP, seg *netsim.Segment) netip.Addr {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pop.bbAddr.IsValid() {
		return pop.bbAddr
	}
	p.bbHosts++
	pop.bbAddr = netip.AddrFrom4([4]byte{100, 127, 0, byte(p.bbHosts)})
	ifc := pop.Router.AddInterface("bb0", "backbone", netip.PrefixFrom(pop.bbAddr, 24), seg)
	// Expose the attachment as a flappable link so the injector can take
	// a PoP's backbone down and back up (LinkFlap / Partition faults).
	p.cfg.Chaos.RegisterLink("bb0:"+pop.Name, pop.Name,
		func() { ifc.Attach(nil) },
		func() { ifc.Attach(seg) })
	return pop.bbAddr
}

// BackboneLink is the provisioned capacity between a pair of PoPs.
type BackboneLink struct {
	A, B        string
	CapacityBps float64
	Latency     time.Duration
}

func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// BackboneLinks returns every provisioned pair.
func (p *Platform) BackboneLinks() []BackboneLink {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]BackboneLink, 0, len(p.bbLinks))
	for _, l := range p.bbLinks {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].A+out[i].B < out[j].A+out[j].B
	})
	return out
}
