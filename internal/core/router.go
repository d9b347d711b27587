package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/bpf"
	"repro/internal/ethernet"
	"repro/internal/guard"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/rib"
	"repro/internal/rpki"
	"repro/internal/telemetry"
)

// Config configures a vBGP router (one Peering PoP).
type Config struct {
	// Name is the PoP name, e.g. "amsix".
	Name string
	// ASN is the platform's AS number.
	ASN uint32
	// RouterID is the BGP identifier.
	RouterID netip.Addr
	// LocalPool is the per-router next-hop pool exposed to experiments.
	// Defaults to 127.65.0.0/16.
	LocalPool netip.Prefix
	// GlobalPool is the platform-wide external-neighbor pool, shared by
	// every router on the backbone. Required for backbone operation;
	// a private pool is created when nil.
	GlobalPool *Pool
	// Enforcer is the control-plane enforcement engine applied to
	// experiment announcements. Nil disables enforcement (routers that
	// carry no experiments, such as the §6 AMS-IX scale figure's).
	Enforcer *policy.Engine
	// Monitor, when set, receives BMP-style monitoring events (peer
	// up/down, route monitoring) from this router. The
	// emit path never blocks: a full queue drops with a counter.
	Monitor *telemetry.Emitter
	// Validator, when set, classifies every neighbor route exported to
	// experiments against the RPKI and tags it with a validation-state
	// large community (rov.go). Typically an *rpki.Client whose cache is
	// kept live over an RTR session.
	Validator rpki.Validator
	// Damping, when non-nil, applies RFC 2439 flap damping to routes
	// learned from neighbors: a flapping (neighbor, prefix) accumulates
	// penalty, and once suppressed it is withheld from experiment and
	// mesh export — while staying in the adj-RIB-in — until the penalty
	// decays below the reuse threshold.
	Damping *guard.DampingConfig
	// NeighborMRAI, when positive, sets the MinRouteAdvertisementInterval
	// on every neighbor session (overridable per neighbor via
	// NeighborConfig.MRAI) so rapid churn toward real neighbors
	// coalesces into one batched advertisement per interval.
	NeighborMRAI time.Duration
	// MaintainDefaultTable additionally maintains a best-path Loc-RIB,
	// the overhead a router serving production traffic would pay; vBGP
	// does not need it because experiments pick their own routes. This
	// is the third curve of Fig. 6a.
	MaintainDefaultTable bool
	// SnapshotInterval sets rib.Table auto-snapshotting on every table
	// the router creates: after this many table versions a compressed
	// read-only FIB snapshot is rebuilt, letting data-plane lookups run
	// lock-free. Zero applies DefaultSnapshotInterval; negative disables
	// snapshots entirely.
	SnapshotInterval int
	// Logf, when set, receives router event logs.
	Logf func(format string, args ...any)
}

// Neighbor is one BGP adjacency of the router: a directly connected
// external network (local), or an external neighbor of another PoP
// reachable over the backbone (remote).
type Neighbor struct {
	// Name identifies the neighbor ("AMS-IX-RS1", "remote:127.127.0.9").
	Name string
	// ID is the neighbor's platform-wide identifier, used as the
	// ADD-PATH path ID on experiment sessions and as the value of the
	// announcement-control communities.
	ID uint32
	// ASN is the neighbor's AS number.
	ASN uint32
	// Addr is the neighbor's interface address (local neighbors).
	Addr netip.Addr
	// Remote marks neighbors of other PoPs learned over the backbone.
	Remote bool
	// RouteServer marks transparent route-server sessions (RFC 7947):
	// relayed routes keep each member's next hop and arrive with
	// per-member ADD-PATH IDs, so the neighbor's table holds many paths
	// per prefix.
	RouteServer bool

	// LocalIP is the address from the router's local pool that
	// experiments use as this neighbor's next hop.
	LocalIP netip.Addr
	// LocalMAC is the MAC the LocalIP resolves to. It is derived from
	// GlobalIP, so the same neighbor has the same MAC at every PoP and
	// source-MAC attribution survives backbone forwarding.
	LocalMAC ethernet.MAC
	// GlobalIP is the neighbor's platform-wide pool address (Fig. 5).
	GlobalIP netip.Addr

	// Table holds the routes learned from this neighbor. Path next hops
	// are forwarding next hops: Addr for local neighbors, the remote
	// external neighbor's GlobalIP for remote ones.
	Table *rib.Table
	// AdjOut holds experiment announcements exported to this neighbor.
	AdjOut *rib.Table

	ifc *netsim.Interface // attachment of local neighbors

	// sessMu guards session, which is replaced on every reconnect when
	// the neighbor is supervised.
	sessMu  sync.Mutex
	session *bgp.Session // nil for remote neighbors
	sup     *bgp.Supervisor
	// gr is the graceful-restart retention window (0 = GR off).
	gr time.Duration
	// staleTimer flushes still-stale paths when the restart window
	// lapses without End-of-RIB. Guarded by sessMu.
	staleTimer *time.Timer

	// routesGauge publishes Table occupancy (core_neighbor_routes).
	routesGauge *telemetry.Gauge

	// from is the session context every path learned from the neighbor
	// shares: set once by remoteNeighbor for a remote neighbor, and kept
	// by peerInfo for a local session.
	from atomic.Pointer[rib.PeerInfo]

	// rovStates records the validation state last stamped on each of the
	// neighbor's routes exported to experiments, so RevalidateExports can
	// re-export exactly the routes whose state flipped; an entry goes
	// when its route is withdrawn. rovMu guards it and is a leaf: it is
	// taken under the table's read locks, and nothing is locked or called
	// while it is held.
	rovMu     sync.Mutex
	rovStates map[netip.Prefix]rpki.State
}

// peerInfo returns the session context for a local neighbor's paths:
// one value shared by all of them, replaced only when the session's
// address or router ID changes (a reconnect can bring another speaker).
func (n *Neighbor) peerInfo(addr, routerID netip.Addr) *rib.PeerInfo {
	if pi := n.from.Load(); pi != nil && pi.Addr == addr && pi.RouterID == routerID {
		return pi
	}
	pi := &rib.PeerInfo{Addr: addr, RouterID: routerID}
	n.from.Store(pi)
	return pi
}

// Session returns the neighbor's current BGP session (nil for remote
// neighbors). Supervised neighbors get a fresh session on every
// reconnect, so callers must not cache the result.
func (n *Neighbor) Session() *bgp.Session {
	n.sessMu.Lock()
	defer n.sessMu.Unlock()
	return n.session
}

func (n *Neighbor) setSession(s *bgp.Session) {
	n.sessMu.Lock()
	n.session = s
	n.sessMu.Unlock()
}

// expConn is one connected experiment. The session is set once at
// construction; a reconnecting experiment gets a whole new expConn.
type expConn struct {
	name    string
	session *bgp.Session
	// gr is the graceful-restart retention window for this experiment's
	// routes after its session drops.
	gr time.Duration
}

// meshPeer is a backbone session to another vBGP router.
type meshPeer struct {
	name    string
	session *bgp.Session
	// addr is the remote router's backbone address.
	addr netip.Addr

	// mu guards session (replaced on reconnect) and staleTimer.
	mu  sync.Mutex
	sup *bgp.Supervisor
	// gr is the graceful-restart retention window (0 = GR off).
	gr time.Duration
	// resilient marks peers wired for re-establishment: either this
	// side supervises a redial, or the remote side redials into
	// AcceptBackbonePeerConn.
	resilient  bool
	staleTimer *time.Timer
}

// sess returns the peer's current BGP session.
func (p *meshPeer) sess() *bgp.Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.session
}

func (p *meshPeer) setSess(s *bgp.Session) {
	p.mu.Lock()
	p.session = s
	p.mu.Unlock()
}

// Router is a vBGP instance.
type Router struct {
	cfg        Config
	localPool  *Pool
	globalPool *Pool

	// mu serializes the writers of topo, and guards expStale.
	mu sync.Mutex
	// topo is the router's published topology (topology).
	topo atomic.Pointer[topology]
	// expStale holds per-experiment graceful-restart flush timers.
	expStale map[string]*time.Timer

	// expRoutes maps experiment prefixes to the connected experiment (or
	// the backbone peer fronting it) for inbound forwarding. Each path's
	// attributes keep the announcement's control communities: its export
	// policy (communities.go).
	expRoutes *rib.Table
	// defaultTable is the optional router-managed best-path table.
	defaultTable *rib.Table

	// Data plane counters.
	Forwarded      atomic.Uint64
	DroppedNoMAC   atomic.Uint64
	DroppedNoRoute atomic.Uint64
	TTLExpired     atomic.Uint64

	// damper holds the RFC 2439 flap-damping state for neighbor routes
	// (nil when Config.Damping is nil).
	damper *guard.Damper
	// updatesProcessed counts control-plane updates handled on both the
	// neighbor and experiment paths — the watchdog's rate signal.
	updatesProcessed atomic.Uint64
	// shedTelemetry and shedAnnounce are the overload-shedding switches
	// the platform watchdog flips: degraded mode drops monitoring
	// emission, shedding mode additionally treats new experiment
	// announcements as withdrawals.
	shedTelemetry atomic.Bool
	shedAnnounce  atomic.Bool
	still         atomic.Uint64 // what Quiesced saw on its previous call

	metrics routerMetrics
}

// DefaultSnapshotInterval is the table-version stride between FIB
// snapshot rebuilds when Config.SnapshotInterval is zero.
const DefaultSnapshotInterval = 1024

// NewRouter creates a vBGP router.
func NewRouter(cfg Config) *Router {
	if !cfg.LocalPool.IsValid() {
		cfg.LocalPool = DefaultLocalPool
	}
	gp := cfg.GlobalPool
	if gp == nil {
		gp = NewPool(DefaultGlobalPool)
	}
	r := &Router{
		cfg:        cfg,
		localPool:  NewPool(cfg.LocalPool),
		globalPool: gp,
		expStale:   make(map[string]*time.Timer),
		expRoutes:  rib.NewTable(cfg.Name + ":exp-routes"),
		metrics:    newRouterMetrics(cfg.Name),
	}
	r.topo.Store(&topology{
		ifcs:        map[string]*netsim.Interface{},
		neighbors:   map[string]*Neighbor{},
		byGlobalIP:  map[netip.Addr]*Neighbor{},
		experiments: map[string]*expConn{},
		meshPeers:   map[string]*meshPeer{},
		byLocalMAC:  map[ethernet.MAC]fwdNeighbor{},
		byRealMAC:   map[ethernet.MAC]*Neighbor{},
		byLocalIP:   map[netip.Addr]*Neighbor{},
		tunnelIP:    map[string]netip.Addr{},
		byTunnelIP:  map[netip.Addr]string{},
	})
	r.expRoutes.EnableAutoSnapshot(r.snapshotEvery())
	if cfg.MaintainDefaultTable {
		r.defaultTable = rib.NewTable(cfg.Name + ":default")
		r.defaultTable.EnableAutoSnapshot(r.snapshotEvery())
	}
	if cfg.Damping != nil {
		dc := *cfg.Damping
		dc.OnReuse = r.reuseNeighborRoute
		r.damper = guard.NewDamper(dc)
	}
	return r
}

// snapshotEvery resolves Config.SnapshotInterval to the value handed to
// rib.Table.EnableAutoSnapshot: the default stride when unset, 0
// (disabled) when negative.
func (r *Router) snapshotEvery() int {
	switch {
	case r.cfg.SnapshotInterval < 0:
		return 0
	case r.cfg.SnapshotInterval == 0:
		return DefaultSnapshotInterval
	default:
		return r.cfg.SnapshotInterval
	}
}

// Name returns the router's PoP name.
func (r *Router) Name() string { return r.cfg.Name }

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf("["+r.cfg.Name+"] "+format, args...)
	}
}

// MACForGlobalIP derives the platform-wide per-neighbor MAC from the
// neighbor's global pool address. Deriving rather than allocating makes
// the MAC identical at every PoP, so per-packet attribution (source-MAC
// rewriting, §3.2.2) and backbone next-hop resolution (§4.4) compose.
func MACForGlobalIP(gip netip.Addr) ethernet.MAC {
	raw := gip.As4()
	return ethernet.MAC{0x02, 0x7f, raw[0], raw[1], raw[2], raw[3]}
}

// AddInterface creates a router interface named name with the given
// address, attached to seg. The role selects the interface's duty:
// "experiment" (faces experiment tunnels), "backbone", or "neighbor".
func (r *Router) AddInterface(name, role string, addr netip.Prefix, seg *netsim.Segment) *netsim.Interface {
	mac := deriveIfcMAC(r.cfg.Name, name)
	ifc := netsim.NewInterface(r.cfg.Name+":"+name, mac)
	ifc.AddAddr(addr.Addr())
	ifc.SetHandler(r.handleFrame)
	switch role {
	case "experiment":
		ifc.SetARPResponder(r.answerExperimentARP)
	case "backbone":
		ifc.SetARPResponder(r.answerBackboneARP)
	}
	ifc.Attach(seg)

	r.mu.Lock()
	defer r.mu.Unlock()
	r.publish(func(t *topology) {
		t.ifcs = withEntry(t.ifcs, name, ifc)
		switch role {
		case "experiment":
			t.expIfc, t.expLAN = ifc, addr.Masked()
		case "backbone":
			t.bbIfc = ifc
		}
	})
	return ifc
}

// topology is everything the router knows of its interfaces, its peers
// and their data-plane addresses: immutable once published behind
// Router.topo, and replaced copy-on-write — only the map that changes is
// copied — by publish's callers, under Router.mu and only when a value
// actually changes. A reader, control plane or data plane, loads it once
// and takes no lock.
type topology struct {
	// ifcs are the router's interfaces by name; expIfc and bbIfc its
	// experiment-LAN and backbone interfaces (nil until added), and expLAN
	// the experiment LAN's prefix.
	ifcs          map[string]*netsim.Interface
	expIfc, bbIfc *netsim.Interface
	expLAN        netip.Prefix
	// neighbors holds every neighbor, local and remote, by name, and
	// byGlobalIP the local ones by global pool address, for backbone ARP.
	neighbors  map[string]*Neighbor
	byGlobalIP map[netip.Addr]*Neighbor
	// experiments and meshPeers are the experiment and backbone sessions.
	// Each is published before its session runs, so an export that does
	// not find a session Established is one its table dump will carry.
	experiments map[string]*expConn
	meshPeers   map[string]*meshPeer
	// byLocalMAC maps a per-neighbor MAC — the destination MAC an
	// experiment picks a route with — to the neighbor.
	byLocalMAC map[ethernet.MAC]fwdNeighbor
	// byRealMAC maps a local neighbor's own MAC to it, attributing inbound
	// frames to the neighbor that delivered them.
	byRealMAC map[ethernet.MAC]*Neighbor
	// byLocalIP maps a local-pool next hop to its neighbor: the proxy ARP
	// of Fig. 2b.
	byLocalIP map[netip.Addr]*Neighbor
	// tunnelIP maps an experiment to the address it is reached at on the
	// experiment LAN — registered with SetExperimentTunnelIP by whoever
	// attaches its port — and byTunnelIP is its inverse.
	tunnelIP   map[string]netip.Addr
	byTunnelIP map[netip.Addr]string
}

// publish installs a modified copy of the topology; r.mu must be held.
// change gets a shallow copy and must replace (withEntry, withoutEntry),
// not write into, the maps it alters — readers hold the old ones.
func (r *Router) publish(change func(t *topology)) {
	next := *r.topo.Load()
	change(&next)
	r.topo.Store(&next)
}

// withEntry returns a copy of m with k mapped to v.
func withEntry[K comparable, V any](m map[K]V, k K, v V) map[K]V {
	m = maps.Clone(m)
	m[k] = v
	return m
}

// withoutEntry returns a copy of m without k.
func withoutEntry[K comparable, V any](m map[K]V, k K) map[K]V {
	m = maps.Clone(m)
	delete(m, k)
	return m
}

// deriveIfcMAC builds a stable unicast MAC from the router and interface
// names.
func deriveIfcMAC(router, ifc string) ethernet.MAC {
	h := fnv64(router + "/" + ifc)
	var m ethernet.MAC
	m[0] = 0x02
	m[1] = 0x10
	binary.BigEndian.PutUint32(m[2:], uint32(h))
	return m
}

func fnv64(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Interface returns the named router interface, or nil.
func (r *Router) Interface(name string) *netsim.Interface {
	return r.topo.Load().ifcs[name]
}

// answerExperimentARP implements the proxy-ARP of Fig. 2b: requests for a
// neighbor's LocalIP are answered with the neighbor's LocalMAC.
func (r *Router) answerExperimentARP(target netip.Addr) (ethernet.MAC, bool) {
	if n, ok := r.topo.Load().byLocalIP[target]; ok {
		return n.LocalMAC, true
	}
	return ethernet.MAC{}, false
}

// answerBackboneARP implements Fig. 5: requests for the GlobalIP of one
// of this router's local neighbors are answered with the neighbor's MAC,
// steering backbone frames for that neighbor to this router.
func (r *Router) answerBackboneARP(target netip.Addr) (ethernet.MAC, bool) {
	if n, ok := r.topo.Load().byGlobalIP[target]; ok {
		return n.LocalMAC, true
	}
	return ethernet.MAC{}, false
}

// NeighborConfig configures one external BGP adjacency.
type NeighborConfig struct {
	// Name identifies the neighbor.
	Name string
	// ID is the neighbor's platform-wide identifier (community value and
	// experiment-session path ID). Must be unique across the platform
	// and nonzero.
	ID uint32
	// ASN is the neighbor's AS number. Zero accepts any (route server
	// sessions relay many origin ASes, but the session ASN is still the
	// route server's; use the server's ASN here).
	ASN uint32
	// Addr is the neighbor's address on the shared segment.
	Addr netip.Addr
	// Interface names the router interface the neighbor is reached
	// through.
	Interface string
	// Conn is the BGP transport to the neighbor.
	Conn net.Conn
	// RouteServer negotiates ADD-PATH reception for a transparent
	// route-server session.
	RouteServer bool
	// Redial, when set, makes the session resilient: after a transport
	// failure a bgp.Supervisor redials with exponential backoff and
	// re-establishes (RFC 4271 IdleHoldTime). Nil keeps the one-shot
	// behavior.
	Redial func() (net.Conn, error)
	// GracefulRestart, when nonzero, advertises the RFC 4724 capability
	// with this restart time and retains the neighbor's paths as stale
	// for the same window after a supervised session drops.
	GracefulRestart time.Duration
	// MRAI overrides the router's Config.NeighborMRAI for this session.
	MRAI time.Duration
}

// AddNeighbor registers a local external neighbor and starts its BGP
// session. The returned Neighbor is live once the session establishes.
func (r *Router) AddNeighbor(cfg NeighborConfig) (*Neighbor, error) {
	if cfg.ID == 0 {
		return nil, fmt.Errorf("core: neighbor %s needs a nonzero platform ID", cfg.Name)
	}
	r.mu.Lock()
	t := r.topo.Load()
	if _, dup := t.neighbors[cfg.Name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("core: duplicate neighbor %s", cfg.Name)
	}
	ifc := t.ifcs[cfg.Interface]
	if ifc == nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("core: unknown interface %s", cfg.Interface)
	}
	localIP, err := r.localPool.Alloc()
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	globalIP, err := r.globalPool.Alloc()
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	n := &Neighbor{
		Name: cfg.Name, ID: cfg.ID, ASN: cfg.ASN, Addr: cfg.Addr,
		RouteServer: cfg.RouteServer,
		LocalIP:     localIP, GlobalIP: globalIP, LocalMAC: MACForGlobalIP(globalIP),
		Table:  rib.NewTable(r.cfg.Name + ":adj-in:" + cfg.Name),
		AdjOut: rib.NewTable(r.cfg.Name + ":adj-out:" + cfg.Name),
		ifc:    ifc,
		routesGauge: telemetry.Default().Gauge("core_neighbor_routes",
			telemetry.L("pop", r.cfg.Name), telemetry.L("neighbor", cfg.Name)),
	}
	n.Table.EnableAutoSnapshot(r.snapshotEvery())
	r.publish(func(t *topology) {
		t.neighbors = withEntry(t.neighbors, n.Name, n)
		t.byGlobalIP = withEntry(t.byGlobalIP, globalIP, n)
		t.byLocalMAC = withEntry(t.byLocalMAC, n.LocalMAC, fwdNeighbor{n: n})
		t.byLocalIP = withEntry(t.byLocalIP, n.LocalIP, n)
	})
	// Frames for the neighbor's MAC arrive on the experiment LAN and the
	// backbone; accept them there.
	if t.expIfc != nil {
		t.expIfc.AddMAC(n.LocalMAC)
	}
	if t.bbIfc != nil {
		t.bbIfc.AddMAC(n.LocalMAC)
	}
	r.mu.Unlock()

	mrai := cfg.MRAI
	if mrai <= 0 {
		mrai = r.cfg.NeighborMRAI
	}
	scfg := bgp.Config{
		LocalASN:  r.cfg.ASN,
		RemoteASN: cfg.ASN,
		LocalID:   r.cfg.RouterID,
		PeerName:  r.cfg.Name + ":" + cfg.Name,
		MRAI:      mrai,
		Families:  []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast},
		OnUpdate:  func(u *bgp.Update) { r.handleNeighborUpdate(n, u) },
		OnEstablished: func() {
			r.logf("neighbor %s established", n.Name)
			r.emit(telemetry.Event{Kind: telemetry.EventPeerUp, Peer: n.Name, PeerASN: n.ASN})
			r.resolveNeighborMAC(n)
			r.replayExperimentRoutes(n)
		},
		OnClose: func(err error) { r.neighborDown(n, err) },
		Logf:    r.cfg.Logf,
	}
	if cfg.RouteServer {
		scfg.AddPath = map[bgp.AFISAFI]uint8{
			bgp.IPv4Unicast: bgp.AddPathReceive,
			bgp.IPv6Unicast: bgp.AddPathReceive,
		}
	}
	if cfg.GracefulRestart > 0 {
		n.gr = cfg.GracefulRestart
		scfg.GracefulRestart = &bgp.GracefulRestartConfig{RestartTime: cfg.GracefulRestart}
		scfg.OnEndOfRIB = func(fam bgp.AFISAFI) { r.neighborEndOfRIB(n, fam) }
	}
	if cfg.Redial != nil {
		n.sup = bgp.NewSupervisor(bgp.SupervisorConfig{
			Session:   scfg,
			Conn:      cfg.Conn,
			Dial:      cfg.Redial,
			OnSession: n.setSession,
			Logf:      r.cfg.Logf,
		})
		n.sup.Start()
	} else {
		sess := bgp.NewSession(cfg.Conn, scfg)
		n.setSession(sess)
		go sess.Run()
	}
	return n, nil
}

// resolveNeighborMAC learns the neighbor's real MAC so inbound frames can
// be attributed to it (source-MAC rewriting, §3.2.2).
func (r *Router) resolveNeighborMAC(n *Neighbor) {
	if n.ifc == nil || !n.Addr.IsValid() {
		return
	}
	mac, err := n.ifc.Resolve(n.ifc.PrimaryAddr(), n.Addr, arpTimeout)
	if err != nil {
		r.logf("ARP for neighbor %s (%s): %v", n.Name, n.Addr, err)
		return
	}
	r.learnNeighborMAC(n, mac)
}

// learnNeighborMAC publishes a local neighbor's resolved MAC to the data
// plane, if it is news.
func (r *Router) learnNeighborMAC(n *Neighbor, mac ethernet.MAC) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.topo.Load(); t.byLocalMAC[n.LocalMAC].realMAC == mac && t.byRealMAC[mac] == n {
		return
	}
	r.publish(func(t *topology) {
		t.byLocalMAC = withEntry(t.byLocalMAC, n.LocalMAC, fwdNeighbor{n: n, realMAC: mac})
		t.byRealMAC = withEntry(t.byRealMAC, mac, n)
	})
}

// SetNeighborRateLimit polices traffic the router forwards via one
// neighbor to at most pps packets per window of 2^windowShift
// nanoseconds, using a BPF program on the neighbor's egress interface —
// the per-neighbor rate limiting the paper's data-plane enforcement
// supports (§3.3). It returns the program so callers can inspect stats.
func (r *Router) SetNeighborRateLimit(name string, pps uint64, windowShift uint) (*bpf.Program, error) {
	n := r.Neighbor(name)
	if n == nil || n.ifc == nil {
		return nil, fmt.Errorf("core: no local neighbor %s", name)
	}
	prog, _, err := bpf.RateLimiter("rate-"+name, pps, windowShift)
	if err != nil {
		return nil, err
	}
	n.ifc.AddEgressFilter(netsim.FilterFunc(func(data []byte) netsim.Verdict {
		var fr ethernet.Frame
		if fr.DecodeFromBytes(data) != nil || fr.Type != ethernet.TypeIPv4 {
			return netsim.VerdictPass
		}
		// Only police frames actually destined to this neighbor (the
		// interface may be shared, e.g. an IXP fabric).
		if mac := r.topo.Load().byLocalMAC[n.LocalMAC].realMAC; fr.Dst != mac && !mac.IsZero() {
			return netsim.VerdictPass
		}
		if prog.Run(data) == bpf.VerdictPass {
			return netsim.VerdictPass
		}
		return netsim.VerdictDrop
	}))
	return prog, nil
}

// Neighbor returns the named neighbor, or nil.
func (r *Router) Neighbor(name string) *Neighbor {
	return r.topo.Load().neighbors[name]
}

// Neighbors returns all neighbors (local and remote).
func (r *Router) Neighbors() []*Neighbor {
	neighbors := r.topo.Load().neighbors
	out := make([]*Neighbor, 0, len(neighbors))
	for _, n := range neighbors {
		out = append(out, n)
	}
	return out
}

// RouteCount returns the total number of paths across all neighbor
// tables (the quantity Fig. 6a plots memory against).
func (r *Router) RouteCount() int {
	total := 0
	for _, n := range r.topo.Load().neighbors {
		total += n.Table.PathCount()
	}
	return total
}

// SetExperimentTunnelIP registers an experiment's tunnel address so the
// data plane can deliver traffic addressed to it (experiments may host
// services reachable on the tunnel IP, §4.6) even before the experiment
// announces prefixes.
func (r *Router) SetExperimentTunnelIP(name string, ip netip.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.setTunnelIPLocked(name, ip)
}

// ClearExperimentTunnelIP forgets the experiment's tunnel address when
// its tunnel goes away — if it is still ip: a redialling client may
// already have registered its next tunnel's address under the name.
// Traffic for the address is then refused as unroutable at once instead
// of waiting out an ARP that nobody answers.
func (r *Router) ClearExperimentTunnelIP(name string, ip netip.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.topo.Load().tunnelIP[name] == ip {
		r.setTunnelIPLocked(name, netip.Addr{})
	}
}

// setTunnelIPLocked makes ip — nothing, for the zero Addr — the address
// the named experiment is reached at; r.mu must be held.
func (r *Router) setTunnelIPLocked(name string, ip netip.Addr) {
	cur := r.topo.Load().tunnelIP[name]
	if cur == ip {
		return
	}
	r.publish(func(t *topology) {
		t.tunnelIP, t.byTunnelIP = maps.Clone(t.tunnelIP), maps.Clone(t.byTunnelIP)
		if t.byTunnelIP[cur] == name {
			delete(t.byTunnelIP, cur)
		}
		if ip.IsValid() {
			t.tunnelIP[name], t.byTunnelIP[ip] = ip, name
		} else {
			delete(t.tunnelIP, name)
		}
	})
}

// ExperimentRoutes exposes the experiment-prefix table (tests and the
// peering facade).
func (r *Router) ExperimentRoutes() *rib.Table { return r.expRoutes }

// UpdatesProcessed reports how many control-plane updates the router
// has handled (neighbor + experiment paths) — the watchdog samples it
// to derive the per-PoP update rate.
func (r *Router) UpdatesProcessed() uint64 { return r.updatesProcessed.Load() }

// Quiesced reports whether the router is at rest: every session it owns
// is (bgp.Session.Quiesced), and no table version nor the processed-update
// count moved since the previous call. A pending timer (redial, restart
// window, damping reuse) is not work in flight. It reads existing counters.
func (r *Router) Quiesced() bool {
	t := r.topo.Load()
	quiet := true
	sum := r.updatesProcessed.Load() + r.expRoutes.Stats().Version
	if r.defaultTable != nil {
		sum += r.defaultTable.Stats().Version
	}
	for _, n := range t.neighbors {
		quiet = (n.Session() == nil || n.Session().Quiesced()) && quiet
		sum += n.Table.Stats().Version + n.AdjOut.Stats().Version
	}
	for _, e := range t.experiments {
		quiet = e.session.Quiesced() && quiet
	}
	for _, p := range t.meshPeers {
		quiet = (p.sess() == nil || p.sess().Quiesced()) && quiet
	}
	var sig uint64 // 0: busy; else the sum, shifted, low bit set
	if quiet {
		sig = sum<<1 | 1
	}
	return r.still.Swap(sig) == sig && quiet
}

// SetTelemetryShed toggles dropping of monitoring emission, the first
// (cheapest) overload-shedding stage.
func (r *Router) SetTelemetryShed(on bool) { r.shedTelemetry.Store(on) }

// SetAnnouncementShed toggles treat-as-withdraw for new experiment
// announcements (RFC 7606-style at the platform level), the last
// shedding stage: withdrawals and established state keep flowing, but
// no new routes are installed or propagated until pressure recedes.
func (r *Router) SetAnnouncementShed(on bool) { r.shedAnnounce.Store(on) }

// ShedNonEstablishedExperiments closes experiment sessions that are
// not (or no longer) Established — half-open connections holding
// goroutines and buffers a PoP under pressure cannot spare. Returns how
// many sessions were closed.
func (r *Router) ShedNonEstablishedExperiments() int {
	var victims []*expConn
	for _, e := range r.topo.Load().experiments {
		if e.session != nil && e.session.State() != bgp.StateEstablished {
			victims = append(victims, e)
		}
	}
	for _, e := range victims {
		r.logf("shedding: closing non-established experiment session %s", e.name)
		e.session.Close()
	}
	r.metrics.shedSessions.Add(uint64(len(victims)))
	return len(victims)
}

// reuseNeighborRoute is the damper's OnReuse callback: the penalty has
// decayed below the reuse threshold, so the adj-RIB-in copy retained
// through suppression is exported again.
func (r *Router) reuseNeighborRoute(key guard.Key) {
	n := r.topo.Load().neighbors[key.Peer]
	if n == nil {
		return
	}
	n.Table.MarkDamped(key.Prefix, key.Peer, false)
	if best := n.Table.Best(key.Prefix); best != nil {
		r.logf("damping: %s reusable again, re-exporting", key)
		r.exportToExperiments(n, key.Prefix, best.Attrs, false)
		r.exportToMesh(n, key.Prefix, best.Attrs, false)
	}
}

// DefaultTable returns the router-managed best-path table, or nil when
// MaintainDefaultTable is off.
func (r *Router) DefaultTable() *rib.Table { return r.defaultTable }
