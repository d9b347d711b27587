package peering

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bgp"
	"repro/internal/ethernet"
	"repro/internal/rib"
	"repro/internal/tunnel"
)

// Client is the experiment-side toolkit (paper §4.5, Table 1): it opens
// tunnels to PoPs, runs BGP sessions over them, announces and withdraws
// prefixes with AS-path and community manipulation, inspects learned
// routes, and exchanges data-plane traffic with per-packet egress
// selection.
type Client struct {
	// Name and Key are the credentials issued at approval.
	Name string
	Key  string
	// ASN the experiment originates from.
	ASN uint32
	// MRAI, when positive, paces the client's own UPDATE stream on
	// sessions started after it is set (RFC 4271 §9.2.1.1 coalescing on
	// the experiment side). The control plane sets it from a spec's
	// pacing override.
	MRAI time.Duration
	// GR, when positive, advertises the graceful-restart capability
	// (RFC 4724) with this restart time on plain (non-resilient)
	// sessions started after it is set. The control plane sets it so a
	// crash-killed daemon's routes are retained as stale — adoptable on
	// recovery — instead of withdrawn the moment the tunnel dies.
	GR time.Duration

	mu    sync.Mutex
	conns map[string]*popConn
}

// clientSnapshotInterval is the table-version stride between FIB
// snapshot rebuilds on a client's per-PoP route table. Client tables
// are small next to a PoP's adj-RIBs, so a tight stride keeps the
// packet path on the lock-free snapshot almost immediately.
const clientSnapshotInterval = 64

// popConn is the client's state for one PoP.
type popConn struct {
	// popName and platformASN identify the PoP; pop is set only for
	// in-process connections (nil when the PoP is remote, e.g. over
	// TCP via OpenTunnelRemote).
	popName     string
	platformASN uint32
	pop         *PoP
	// stateMu guards the fields a resilient reconnect replaces: the
	// tunnel pair, the BGP session, and the addresses parsed from the
	// (re-issued) tunnel payload.
	stateMu sync.Mutex
	// tun is the client end; serverTun is the PoP end (the router's BGP
	// session attaches to its control channel; nil for remote PoPs,
	// where the server attaches it itself).
	tun       *tunnel.Tunnel
	serverTun *tunnel.Tunnel
	sess      *bgp.Session
	// sup keeps the session alive across tunnel loss in resilient mode.
	sup *bgp.Supervisor

	localIP    netip.Addr
	routerAddr netip.Addr

	estMu   sync.Mutex
	estDone bool

	// anns records live announcements so a resilient client can replay
	// them (with the re-assigned tunnel address as next hop) after a
	// reconnect, RFC 4724 style.
	annMu sync.Mutex
	anns  map[annKey]announcement

	table *rib.Table // routes learned at this PoP

	arpMu   sync.Mutex
	arp     map[netip.Addr]ethernet.MAC
	arpWait map[netip.Addr][]chan ethernet.MAC

	pktMu    sync.Mutex
	onPacket func(ip *ethernet.IPv4, fromNeighbor ethernet.MAC)

	echoMu   sync.Mutex
	echoWait map[[2]uint16]chan probeReply

	estCh chan struct{}
}

// NewClient creates a toolkit client for an approved experiment.
func NewClient(name, key string, asn uint32) *Client {
	return &Client{Name: name, Key: key, ASN: asn, conns: make(map[string]*popConn)}
}

// OpenTunnel establishes the authenticated tunnel to a PoP (Table 1:
// "open tunnels").
func (c *Client) OpenTunnel(pop *PoP) error {
	c.mu.Lock()
	if _, dup := c.conns[pop.Name]; dup {
		c.mu.Unlock()
		return fmt.Errorf("peering: tunnel to %s already open", pop.Name)
	}
	c.mu.Unlock()

	tun, serverTun, err := dialPopTunnel(pop, c.Name, c.Key)
	if err != nil {
		return err
	}
	pc, err := c.newPopConn(pop.Name, pop.platform.ASN(), tun)
	if err != nil {
		return err
	}
	pc.pop = pop
	pc.serverTun = serverTun
	pop.mu.Lock()
	pop.clients = append(pop.clients, pc)
	pop.mu.Unlock()
	return nil
}

// dialPopTunnel opens one authenticated in-process tunnel to pop,
// threading the server-side carrier through the platform's fault
// injector so chaos runs can sever it.
func dialPopTunnel(pop *PoP, name, key string) (tun, serverTun *tunnel.Tunnel, err error) {
	serverSide, clientSide := newConnPair()
	serverSide = pop.platform.chaosWrap("tunnel", name, pop.Name, serverSide)
	type serveResult struct {
		tun *tunnel.Tunnel
		err error
	}
	served := make(chan serveResult, 1)
	go func() {
		st, err := pop.ServeTunnel(serverSide)
		served <- serveResult{st, err}
	}()
	tun, err = tunnel.Dial(clientSide, name, key)
	if err != nil {
		<-served
		return nil, nil, err
	}
	res := <-served
	if res.err != nil {
		return nil, nil, res.err
	}
	return tun, res.tun, nil
}

// newPopConn builds per-PoP client state around an authenticated tunnel
// and registers it.
func (c *Client) newPopConn(popName string, platformASN uint32, tun *tunnel.Tunnel) (*popConn, error) {
	pc := &popConn{
		popName: popName, platformASN: platformASN, tun: tun,
		table:    rib.NewTable(c.Name + "@" + popName),
		arp:      make(map[netip.Addr]ethernet.MAC),
		arpWait:  make(map[netip.Addr][]chan ethernet.MAC),
		echoWait: make(map[[2]uint16]chan probeReply),
		estCh:    make(chan struct{}),
		anns:     make(map[annKey]announcement),
	}
	// Data-plane lookups (pathFor) run per packet: keep a FIB snapshot
	// maintained so they bypass the table's shard locks.
	pc.table.EnableAutoSnapshot(clientSnapshotInterval)
	var bits int
	var ipStr, rtrStr string
	if _, err := fmt.Sscanf(string(tun.Payload), "%s %d %s", &ipStr, &bits, &rtrStr); err != nil {
		tun.Close()
		return nil, fmt.Errorf("peering: bad tunnel config %q: %v", tun.Payload, err)
	}
	pc.localIP = netip.MustParseAddr(ipStr)
	pc.routerAddr = netip.MustParseAddr(rtrStr)
	tun.OnFrame(pc.frameHandler())

	c.mu.Lock()
	c.conns[popName] = pc
	c.mu.Unlock()
	return pc, nil
}

// session, transport, and local read the reconnect-replaceable state;
// setSession installs each new session incarnation (the Supervisor's
// OnSession hook in resilient mode).
func (pc *popConn) session() *bgp.Session {
	pc.stateMu.Lock()
	defer pc.stateMu.Unlock()
	return pc.sess
}

func (pc *popConn) setSession(s *bgp.Session) {
	pc.stateMu.Lock()
	pc.sess = s
	pc.stateMu.Unlock()
}

func (pc *popConn) transport() *tunnel.Tunnel {
	pc.stateMu.Lock()
	defer pc.stateMu.Unlock()
	return pc.tun
}

func (pc *popConn) local() netip.Addr {
	pc.stateMu.Lock()
	defer pc.stateMu.Unlock()
	return pc.localIP
}

func (pc *popConn) supervisor() *bgp.Supervisor {
	pc.stateMu.Lock()
	defer pc.stateMu.Unlock()
	return pc.sup
}

// signalEstablished closes estCh exactly once; resilient sessions
// establish repeatedly.
func (pc *popConn) signalEstablished() {
	pc.estMu.Lock()
	if !pc.estDone {
		pc.estDone = true
		close(pc.estCh)
	}
	pc.estMu.Unlock()
}

// CloseTunnel tears down the tunnel to a PoP (Table 1: "close tunnels").
func (c *Client) CloseTunnel(popName string) error {
	c.mu.Lock()
	pc := c.conns[popName]
	delete(c.conns, popName)
	c.mu.Unlock()
	if pc == nil {
		return fmt.Errorf("peering: no tunnel to %s", popName)
	}
	if pc.pop != nil {
		pc.pop.mu.Lock()
		pc.pop.clients = slices.DeleteFunc(pc.pop.clients, func(o *popConn) bool { return o == pc })
		pc.pop.mu.Unlock()
	}
	if sup := pc.supervisor(); sup != nil {
		sup.Stop()
	} else if sess := pc.session(); sess != nil {
		sess.Close()
	}
	return pc.transport().Close()
}

// TunnelStatus reports "up" or "down" (Table 1: "check status").
func (c *Client) TunnelStatus(popName string) string {
	c.mu.Lock()
	pc := c.conns[popName]
	c.mu.Unlock()
	if pc == nil {
		return "down"
	}
	select {
	case <-pc.transport().Done():
		return "down"
	default:
		return "up"
	}
}

func (c *Client) conn(popName string) (*popConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pc := c.conns[popName]
	if pc == nil {
		return nil, fmt.Errorf("peering: no tunnel to %s (open one first)", popName)
	}
	return pc, nil
}

// StartBGP brings up the experiment's BGP session at a PoP over the
// tunnel (Table 1: "start BIRD v4 and v6 sessions" — one session carries
// both families here).
func (c *Client) StartBGP(popName string) error {
	pc, err := c.conn(popName)
	if err != nil {
		return err
	}
	if pc.session() != nil {
		return fmt.Errorf("peering: BGP already running at %s", popName)
	}
	if pc.pop != nil && pc.pop.platform.resilient() {
		return c.startResilientBGP(pc)
	}
	// In-process PoPs attach the router side here; remote PoPs attached
	// it at tunnel setup (ServeAndAttach).
	if pc.pop != nil {
		if err := pc.pop.ConnectExperimentBGP(pc.serverTun, c.ASN); err != nil {
			return err
		}
	}
	cfg := bgp.Config{
		LocalASN:  c.ASN,
		RemoteASN: pc.platformASN,
		LocalID:   pc.local(),
		MRAI:      c.MRAI,
		Families:  []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast},
		AddPath: map[bgp.AFISAFI]uint8{
			bgp.IPv4Unicast: bgp.AddPathSendReceive,
			bgp.IPv6Unicast: bgp.AddPathSendReceive,
		},
		OnUpdate:      func(u *bgp.Update) { pc.handleUpdate(u) },
		OnEstablished: func() { pc.signalEstablished() },
	}
	if c.GR > 0 {
		// A plain client never sends End-of-RIB after a restart (only
		// resilient mode replays), so the router's stale routes persist
		// until adopted or flushed by the restart timer.
		cfg.GracefulRestart = &bgp.GracefulRestartConfig{RestartTime: c.GR}
	}
	sess := bgp.NewSession(pc.transport().Control(), cfg)
	pc.setSession(sess)
	go sess.Run()
	return nil
}

// WaitEstablished blocks until the PoP's BGP session establishes.
func (c *Client) WaitEstablished(popName string, timeout time.Duration) error {
	pc, err := c.conn(popName)
	if err != nil {
		return err
	}
	// The supervisor spawns its first session asynchronously, so a
	// resilient popConn counts as started once the supervisor exists.
	if pc.session() == nil && pc.supervisor() == nil {
		return fmt.Errorf("peering: BGP not started at %s", popName)
	}
	select {
	case <-pc.estCh:
		return nil
	case <-time.After(timeout):
		state := bgp.StateIdle
		if sess := pc.session(); sess != nil {
			state = sess.State()
		}
		return fmt.Errorf("peering: BGP at %s did not establish (state %s)", popName, state)
	}
}

// StopBGP closes the session (Table 1: "stop sessions").
func (c *Client) StopBGP(popName string) error {
	pc, err := c.conn(popName)
	if err != nil {
		return err
	}
	sess := pc.session()
	if sess == nil {
		return fmt.Errorf("peering: BGP not running at %s", popName)
	}
	if sup := pc.supervisor(); sup != nil {
		sup.Stop()
		pc.stateMu.Lock()
		pc.sup = nil
		pc.stateMu.Unlock()
	} else {
		sess.Close()
	}
	pc.setSession(nil)
	return nil
}

// BGPStatus returns the session state (Table 1: "status of BGP
// connections").
func (c *Client) BGPStatus(popName string) bgp.State {
	pc, err := c.conn(popName)
	if err != nil {
		return bgp.StateIdle
	}
	sess := pc.session()
	if sess == nil {
		return bgp.StateIdle
	}
	return sess.State()
}

// handleUpdate maintains the client's per-PoP route table. u is lent
// by the session; its attribute set is the callee's, so it is stored as
// is, shared by every route the UPDATE carries. Nothing writes a client
// table's attributes.
func (pc *popConn) handleUpdate(u *bgp.Update) {
	for _, w := range u.Withdrawn {
		pc.table.Withdraw(w.Prefix, pc.popName, w.ID)
	}
	for _, w := range u.MPUnreach {
		pc.table.Withdraw(w.Prefix, pc.popName, w.ID)
	}
	if u.Attrs == nil {
		return
	}
	store := func(nlri bgp.NLRI) {
		pc.table.Add(&rib.Path{
			Prefix: nlri.Prefix, ID: nlri.ID, Peer: pc.popName,
			Attrs: u.Attrs, EBGP: true, Seq: rib.NextSeq(),
		})
	}
	for _, nlri := range u.NLRI {
		store(nlri)
	}
	for _, nlri := range u.MPReach {
		store(nlri)
	}
}

// Routes returns a snapshot of the routes learned at a PoP. Each path's
// ID is the neighbor the route came through; its next hop is the
// neighbor's local-pool address.
func (c *Client) Routes(popName string) []*rib.Path {
	pc, err := c.conn(popName)
	if err != nil {
		return nil
	}
	var out []*rib.Path
	pc.table.Walk(func(_ netip.Prefix, paths []*rib.Path) bool {
		out = append(out, paths...)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix != out[j].Prefix {
			return out[i].Prefix.String() < out[j].Prefix.String()
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// RoutesFor returns the paths for one prefix at a PoP.
func (c *Client) RoutesFor(popName string, prefix netip.Prefix) []*rib.Path {
	pc, err := c.conn(popName)
	if err != nil {
		return nil
	}
	return pc.table.Paths(prefix)
}

// AnnounceOption customizes an announcement (Table 1: "manipulate
// community / AS-path attributes").
type AnnounceOption func(*announcement)

type announcement struct {
	version  bgp.PathID
	prepend  int
	poison   []uint32
	comms    []bgp.Community
	announce []uint32 // whitelist neighbor IDs
	noExport []uint32 // blacklist neighbor IDs
}

// WithVersion announces a distinct version of the prefix (its ADD-PATH
// ID), letting different versions target different neighbors.
func WithVersion(id uint32) AnnounceOption {
	return func(a *announcement) { a.version = bgp.PathID(id) }
}

// WithPrepend prepends the experiment ASN n extra times.
func WithPrepend(n int) AnnounceOption {
	return func(a *announcement) { a.prepend = n }
}

// WithPoison inserts the given ASNs into the path (BGP poisoning;
// requires the capability).
func WithPoison(asns ...uint32) AnnounceOption {
	return func(a *announcement) { a.poison = append(a.poison, asns...) }
}

// WithCommunities attaches BGP communities (requires the capability).
func WithCommunities(comms ...bgp.Community) AnnounceOption {
	return func(a *announcement) { a.comms = append(a.comms, comms...) }
}

// ToNeighbors whitelists export to the given neighbor IDs only.
func ToNeighbors(ids ...uint32) AnnounceOption {
	return func(a *announcement) { a.announce = append(a.announce, ids...) }
}

// ExceptNeighbors blacklists export to the given neighbor IDs.
func ExceptNeighbors(ids ...uint32) AnnounceOption {
	return func(a *announcement) { a.noExport = append(a.noExport, ids...) }
}

// annKey identifies one live announcement: a (prefix, version) pair.
type annKey struct {
	prefix  netip.Prefix
	version bgp.PathID
}

// buildAnnouncement assembles the UPDATE for one announcement with the
// given next hop (the client's current tunnel address — reconnects are
// assigned a fresh one, so replay rebuilds rather than caches updates).
func buildAnnouncement(expASN, platformASN uint32, nextHop netip.Addr, prefix netip.Prefix, a announcement) *bgp.Update {
	// Path shape: experiment ASN, then any poisoned ASNs, then the
	// experiment ASN again as origin when poisoning, so the origin
	// check still passes.
	path := []uint32{expASN}
	if len(a.poison) > 0 {
		path = append(path, a.poison...)
		path = append(path, expASN)
	}
	attrs := &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true,
		ASPath:      []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: path}},
		NextHop:     nextHop,
		Communities: a.comms,
	}
	attrs.PrependAS(expASN, a.prepend)
	for _, id := range a.announce {
		attrs.AddCommunity(AnnounceTo(platformASN, id))
	}
	for _, id := range a.noExport {
		attrs.AddCommunity(NoExportTo(platformASN, id))
	}
	return &bgp.Update{
		Attrs: attrs,
		NLRI:  []bgp.NLRI{{Prefix: prefix, ID: a.version}},
	}
}

// Announce sends a prefix announcement at a PoP (Table 1:
// "announce/withdraw prefix").
func (c *Client) Announce(popName string, prefix netip.Prefix, opts ...AnnounceOption) error {
	pc, err := c.conn(popName)
	if err != nil {
		return err
	}
	sess := pc.session()
	if sess == nil {
		return fmt.Errorf("peering: BGP not running at %s", popName)
	}
	var a announcement
	for _, o := range opts {
		o(&a)
	}
	pc.annMu.Lock()
	pc.anns[annKey{prefix, a.version}] = a
	pc.annMu.Unlock()
	return sess.Send(buildAnnouncement(c.ASN, pc.platformASN, pc.local(), prefix, a))
}

// Adopt records an announcement as live without sending it: the route
// is already installed at the PoP (retained across a control-plane
// restart via graceful restart) and verified to match, so re-sending
// would only burn the experiment's update budget. After Adopt the
// announcement is replayed on reconnects exactly as if this client had
// announced it.
func (c *Client) Adopt(popName string, prefix netip.Prefix, opts ...AnnounceOption) error {
	pc, err := c.conn(popName)
	if err != nil {
		return err
	}
	if pc.session() == nil {
		return fmt.Errorf("peering: BGP not running at %s", popName)
	}
	var a announcement
	for _, o := range opts {
		o(&a)
	}
	pc.annMu.Lock()
	pc.anns[annKey{prefix, a.version}] = a
	pc.annMu.Unlock()
	return nil
}

// Withdraw retracts a prefix (a specific version, or version 0).
func (c *Client) Withdraw(popName string, prefix netip.Prefix, version uint32) error {
	pc, err := c.conn(popName)
	if err != nil {
		return err
	}
	sess := pc.session()
	if sess == nil {
		return fmt.Errorf("peering: BGP not running at %s", popName)
	}
	pc.annMu.Lock()
	delete(pc.anns, annKey{prefix, bgp.PathID(version)})
	pc.annMu.Unlock()
	return sess.Send(&bgp.Update{
		Withdrawn: []bgp.NLRI{{Prefix: prefix, ID: bgp.PathID(version)}},
	})
}

// CLI evaluates a BIRD-style show command against the client's state
// (Table 1: "access BIRD CLI").
func (c *Client) CLI(popName, command string) string {
	pc, err := c.conn(popName)
	if err != nil {
		return err.Error()
	}
	fields := strings.Fields(command)
	switch {
	case len(fields) == 2 && fields[0] == "show" && fields[1] == "protocols":
		state := "down"
		if sess := pc.session(); sess != nil {
			state = sess.State().String()
		}
		return fmt.Sprintf("name     proto  state\n%-8s BGP    %s", popName, state)
	case len(fields) >= 2 && fields[0] == "show" && fields[1] == "route":
		var b strings.Builder
		var filter netip.Prefix
		if len(fields) == 3 {
			p, err := netip.ParsePrefix(fields[2])
			if err != nil {
				return "syntax error: " + err.Error()
			}
			filter = p
		}
		for _, p := range c.Routes(popName) {
			if filter.IsValid() && p.Prefix != filter {
				continue
			}
			fmt.Fprintf(&b, "%-20s via %-12s [id %d] %v\n",
				p.Prefix, p.NextHop(), p.ID, p.Attrs.ASPathFlat())
		}
		if b.Len() == 0 {
			return "<no routes>"
		}
		return strings.TrimRight(b.String(), "\n")
	default:
		return "syntax error: supported commands: show protocols, show route [prefix]"
	}
}
