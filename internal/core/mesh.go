package core

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/rib"
	"repro/internal/telemetry"
)

// BackbonePeerConfig configures one backbone mesh session.
type BackbonePeerConfig struct {
	// Name is the remote router's PoP name.
	Name string
	// Addr is the peer router's backbone address, used as the next hop
	// for experiment routes relayed from that PoP.
	Addr netip.Addr
	// Conn is the initial BGP transport.
	Conn net.Conn
	// Redial, when set, supervises the session: transport failures are
	// followed by redials with exponential backoff.
	Redial func() (net.Conn, error)
	// Resilient marks a passive peer that re-establishes by the remote
	// side redialing into AcceptBackbonePeerConn; state is retained
	// across failures as for a supervised peer.
	Resilient bool
	// GracefulRestart, when nonzero, advertises RFC 4724 and retains
	// backbone-learned state as stale for this window after a drop.
	GracefulRestart time.Duration
}

// AddBackbonePeer connects this router to another vBGP router over the
// backbone with an iBGP-style session (same ASN, ADD-PATH in both
// directions). The session is one-shot: transport loss tears the
// peer's state down. Use AddBackbonePeerConfig for resilient peers.
func (r *Router) AddBackbonePeer(name string, remoteAddr netip.Addr, conn net.Conn) error {
	return r.AddBackbonePeerConfig(BackbonePeerConfig{Name: name, Addr: remoteAddr, Conn: conn})
}

// AddBackbonePeerConfig registers a backbone mesh peer per cfg.
func (r *Router) AddBackbonePeerConfig(cfg BackbonePeerConfig) error {
	r.mu.Lock()
	if _, dup := r.topo.Load().meshPeers[cfg.Name]; dup {
		r.mu.Unlock()
		return fmt.Errorf("core: duplicate backbone peer %s", cfg.Name)
	}
	p := &meshPeer{
		name: cfg.Name, addr: cfg.Addr,
		gr:        cfg.GracefulRestart,
		resilient: cfg.Redial != nil || cfg.Resilient,
	}
	r.publish(func(t *topology) { t.meshPeers = withEntry(t.meshPeers, cfg.Name, p) })
	r.mu.Unlock()

	scfg := r.meshSessionConfig(p)
	if cfg.Redial != nil {
		p.sup = bgp.NewSupervisor(bgp.SupervisorConfig{
			Session:   scfg,
			Conn:      cfg.Conn,
			Dial:      cfg.Redial,
			OnSession: p.setSess,
			Logf:      r.cfg.Logf,
		})
		p.sup.Start()
		return nil
	}
	sess := bgp.NewSession(cfg.Conn, scfg)
	p.setSess(sess)
	go sess.Run()
	return nil
}

// AcceptBackbonePeerConn re-attaches a known backbone peer over a fresh
// transport — the passive half of mesh resilience: the remote router's
// supervisor redials, this side accepts and replaces the dead session.
func (r *Router) AcceptBackbonePeerConn(name string, conn net.Conn) error {
	p := r.topo.Load().meshPeers[name]
	if p == nil {
		return fmt.Errorf("core: unknown backbone peer %s", name)
	}
	if old := p.sess(); old != nil {
		// No-op when the old session already died (the usual case).
		old.Close()
	}
	sess := bgp.NewSession(conn, r.meshSessionConfig(p))
	p.setSess(sess)
	go sess.Run()
	return nil
}

// meshSessionConfig builds the (re)usable session config for a mesh
// peer. The callbacks read the peer's current session, which the
// supervisor or accept path updates before the session runs.
func (r *Router) meshSessionConfig(p *meshPeer) bgp.Config {
	scfg := bgp.Config{
		LocalASN:  r.cfg.ASN,
		RemoteASN: r.cfg.ASN,
		LocalID:   r.cfg.RouterID,
		PeerName:  r.cfg.Name + ":mesh:" + p.name,
		Families:  []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast},
		AddPath: map[bgp.AFISAFI]uint8{
			bgp.IPv4Unicast: bgp.AddPathSendReceive,
			bgp.IPv6Unicast: bgp.AddPathSendReceive,
		},
		OnUpdate: func(u *bgp.Update) { r.handleMeshUpdate(p, u) },
		OnEstablished: func() {
			r.emit(telemetry.Event{Kind: telemetry.EventPeerUp, Peer: "mesh:" + p.name, PeerASN: r.cfg.ASN})
			r.dumpToMeshPeer(p)
		},
		OnClose: func(err error) { r.meshPeerDown(p, err) },
		Logf:    r.cfg.Logf,
	}
	if p.gr > 0 {
		scfg.GracefulRestart = &bgp.GracefulRestartConfig{RestartTime: p.gr}
		scfg.OnEndOfRIB = func(fam bgp.AFISAFI) { r.meshPeerEndOfRIB(p, fam) }
	}
	return scfg
}

// dumpToMeshPeer replays local state to a newly established backbone
// peer: every local neighbor's best routes (next hop GlobalIP, path ID =
// the neighbor's platform ID — what incremental exports relay), streamed
// under the same ordering invariant as an experiment's dump
// (streamTable), and every local experiment announcement.
func (r *Router) dumpToMeshPeer(p *meshPeer) {
	r.logf("backbone peer %s established", p.name)
	s := p.sess()
	if s == nil {
		return
	}
	t := r.topo.Load()
	for _, n := range t.neighbors {
		if n.Remote {
			continue
		}
		if _, err := r.streamTable(s, n, r.toMesh); err != nil {
			r.logf("mesh dump to %s: %v", p.name, err)
			return
		}
	}
	bb := t.bbIfc
	if bb == nil {
		return
	}
	// Relay the experiment-LAN prefix so tunnel-address traffic (probe
	// replies, hosted services) arriving at other PoPs routes back here.
	// Whitelisting the reserved internal-only pseudo-neighbor keeps it
	// off the Internet; the large-community form does so whatever the
	// platform ASN.
	if t.expLAN.IsValid() {
		out := &bgp.PathAttrs{
			Origin: bgp.OriginIGP, HasOrigin: true,
			ASPath:           []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{r.cfg.ASN}}},
			NextHop:          bb.PrimaryAddr(),
			LargeCommunities: []bgp.LargeCommunity{LargeAnnounceTo(r.cfg.ASN, internalOnlyID)},
		}
		u := &bgp.Update{Attrs: out, NLRI: []bgp.NLRI{{Prefix: t.expLAN, ID: meshExpFlag}}}
		if err := s.Send(u); err != nil {
			r.logf("mesh lan relay to %s: %v", p.name, err)
			return
		}
	}
	// Local experiment routes.
	var expUpdates []*bgp.Update
	r.expRoutes.Walk(func(prefix netip.Prefix, paths []*rib.Path) bool {
		for _, pt := range paths {
			if !isMeshOwner(pt.Peer) {
				expUpdates = append(expUpdates, meshAnnouncement(bb, prefix, pt.ID, pt.Attrs))
			}
		}
		return true
	})
	for start := 0; start < len(expUpdates); start += dumpBlockSize {
		end := min(start+dumpBlockSize, len(expUpdates))
		if err := s.SendBatch(expUpdates[start:end]); err != nil {
			r.logf("mesh dump to %s: %v", p.name, err)
			return
		}
	}
	// End-of-RIB after the full dump (RFC 4724 §3) so a peer retaining
	// this router's state across a restart can sweep what was not
	// re-announced.
	for _, fam := range []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast} {
		if err := s.SendEndOfRIB(fam); err != nil {
			return
		}
	}
}

// handleMeshUpdate processes routes from another PoP. Routes whose next
// hop is in the platform's global pool describe a remote PoP's external
// neighbor: the router materializes a remote Neighbor (local pool IP,
// derived MAC, own table) and re-exports the route to its experiments —
// the hop-by-hop rewrite of §4.4. Other routes are experiment
// announcements relayed for export through this PoP's neighbors.
func (r *Router) handleMeshUpdate(p *meshPeer, u *bgp.Update) {
	for _, w := range u.Withdrawn {
		r.withdrawMeshRoute(p, w)
	}
	for _, w := range u.MPUnreach {
		r.withdrawMeshRoute(p, w)
	}
	process := func(nlri bgp.NLRI, attrs *bgp.PathAttrs, v6 bool) {
		if attrs == nil {
			return
		}
		nh := attrs.NextHop
		if v6 {
			// v6 relays carry the identity in the mapped suffix.
			nh = v6Embedded(attrs.MPNextHop)
		}
		if nlri.ID&meshExpFlag == 0 && r.globalPool.Contains(nh) {
			r.handleRemoteNeighborRoute(p, nlri, attrs, nh)
			return
		}
		r.handleRelayedExperimentRoute(p, nlri, attrs, nh)
	}
	for _, nlri := range u.NLRI {
		process(nlri, u.Attrs, false)
	}
	for _, nlri := range u.MPReach {
		process(nlri, u.Attrs, true)
	}
}

// v6Embedded recovers the v4 identity embedded in a relay v6 next hop.
func v6Embedded(a netip.Addr) netip.Addr {
	if !a.IsValid() || !a.Is6() {
		return netip.Addr{}
	}
	raw := a.As16()
	return netip.AddrFrom4([4]byte(raw[12:16]))
}

// handleRemoteNeighborRoute stores a route from a remote PoP's external
// neighbor and exports it to local experiments.
func (r *Router) handleRemoteNeighborRoute(p *meshPeer, nlri bgp.NLRI, attrs *bgp.PathAttrs, globalIP netip.Addr) {
	n, err := r.remoteNeighbor(globalIP, uint32(nlri.ID), attrs.FirstASN())
	if err != nil {
		r.logf("remote neighbor for %s: %v", globalIP, err)
		return
	}
	// Stored sets are never written, so both tables share one shallow
	// copy with the next hop rewritten.
	stored := *attrs
	if nlri.Prefix.Addr().Is4() {
		stored.NextHop = globalIP // forwarding next hop across the backbone
	}
	r.metrics.backboneRewrites.Inc()
	from := n.from.Load()
	n.Table.Add(&rib.Path{
		Prefix: nlri.Prefix, Peer: n.Name, Attrs: &stored,
		EBGP: true, Seq: rib.NextSeq(), From: from,
	})
	r.syncNeighborRoutesGauge(n)
	if r.defaultTable != nil {
		r.defaultTable.Add(&rib.Path{
			Prefix: nlri.Prefix, Peer: n.Name, Attrs: &stored,
			Seq: rib.NextSeq(), From: from,
		})
	}
	r.exportToExperiments(n, nlri.Prefix, attrs, false)
}

// remoteNeighbor finds or creates the remote-neighbor entry for a global
// pool address.
func (r *Router) remoteNeighbor(globalIP netip.Addr, id uint32, asn uint32) (*Neighbor, error) {
	name := "remote:" + globalIP.String()
	if n := r.topo.Load().neighbors[name]; n != nil {
		return n, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.topo.Load()
	if n := t.neighbors[name]; n != nil {
		return n, nil
	}
	localIP, err := r.localPool.Alloc()
	if err != nil {
		return nil, err
	}
	n := &Neighbor{
		Name: name, ID: id, ASN: asn, Remote: true,
		LocalIP: localIP, GlobalIP: globalIP, LocalMAC: MACForGlobalIP(globalIP),
		Table:  rib.NewTable(r.cfg.Name + ":adj-in:" + name),
		AdjOut: rib.NewTable(r.cfg.Name + ":adj-out:" + name),
		routesGauge: telemetry.Default().Gauge("core_neighbor_routes",
			telemetry.L("pop", r.cfg.Name), telemetry.L("neighbor", name)),
	}
	// A remote neighbor's session context is its global address and no
	// router ID, fixed for its lifetime.
	n.from.Store(&rib.PeerInfo{Addr: globalIP})
	n.Table.EnableAutoSnapshot(r.snapshotEvery())
	r.publish(func(t *topology) {
		t.neighbors = withEntry(t.neighbors, name, n)
		t.byLocalMAC = withEntry(t.byLocalMAC, n.LocalMAC, fwdNeighbor{n: n})
		t.byLocalIP = withEntry(t.byLocalIP, n.LocalIP, n)
	})
	if t.expIfc != nil {
		t.expIfc.AddMAC(n.LocalMAC)
	}
	return n, nil
}

// handleRelayedExperimentRoute exports an experiment route announced at
// another PoP through this PoP's neighbors, honoring the control
// communities its home PoP stored and relayed with it, and records it
// for inbound forwarding across the backbone.
func (r *Router) handleRelayedExperimentRoute(p *meshPeer, nlri bgp.NLRI, attrs *bgp.PathAttrs, remoteBB netip.Addr) {
	stored := *attrs
	if nlri.Prefix.Addr().Is4() {
		stored.NextHop = remoteBB
	}
	r.expRoutes.Add(&rib.Path{
		Prefix: nlri.Prefix, ID: nlri.ID &^ meshExpFlag, Peer: "mesh:" + p.name, Attrs: &stored, Seq: rib.NextSeq(),
	})
	r.syncPrefix(nlri.Prefix)
}

// withdrawMeshRoute handles a withdrawal from a backbone peer.
func (r *Router) withdrawMeshRoute(p *meshPeer, w bgp.NLRI) {
	if w.ID&meshExpFlag != 0 {
		// Experiment route version withdrawn at its home PoP.
		r.withdrawExperimentRoute("mesh:"+p.name, w.Prefix, w.ID&^meshExpFlag, false)
		return
	}
	// Remote-neighbor withdrawal: the path ID names the neighbor.
	if w.ID != 0 {
		var n *Neighbor
		for _, cand := range r.topo.Load().neighbors {
			if cand.Remote && cand.ID == uint32(w.ID) {
				n = cand
				break
			}
		}
		if n != nil && n.Table.Withdraw(w.Prefix, n.Name, 0) != nil {
			if r.defaultTable != nil {
				r.defaultTable.Withdraw(w.Prefix, n.Name, 0)
			}
			r.exportToExperiments(n, w.Prefix, nil, true)
		}
		return
	}
	// Experiment route withdrawal relayed without a version ID.
	r.withdrawExperimentRoute("mesh:"+p.name, w.Prefix, 0, false)
}

// meshPeerDown handles a dropped backbone session. Resilient peers
// (supervised, or re-accepted by the remote side) keep their mesh-peer
// registration so the next session slots in; with graceful restart
// negotiated their learned state is additionally retained as stale
// until the replay's End-of-RIB or the restart window. Non-resilient
// peers get the original full teardown.
func (r *Router) meshPeerDown(p *meshPeer, err error) {
	sess := p.sess()
	if sess != nil && sess.State() == bgp.StateEstablished {
		// A replacement session is already live (late close callback
		// from a superseded session): nothing to tear down.
		return
	}
	resilient := p.resilient && err != nil
	graceful := resilient && p.gr > 0 && sess != nil && sess.GracefulRestartNegotiated()
	if !resilient {
		r.mu.Lock()
		r.publish(func(t *topology) { t.meshPeers = withoutEntry(t.meshPeers, p.name) })
		r.mu.Unlock()
	}
	if graceful {
		r.logf("backbone peer %s down: %v (graceful restart, retaining state for %s)", p.name, err, p.gr)
		r.emit(telemetry.Event{
			Kind: telemetry.EventPeerDown, Peer: "mesh:" + p.name, PeerASN: r.cfg.ASN,
			Reason: closeReason(err) + " (graceful restart)",
		})
		if r.markRemoteNeighborsStale(p) > 0 {
			r.armMeshFlush(p)
		}
		return
	}
	r.logf("backbone peer %s down: %v", p.name, err)
	r.emit(telemetry.Event{Kind: telemetry.EventPeerDown, Peer: "mesh:" + p.name, PeerASN: r.cfg.ASN, Reason: closeReason(err)})
	// Without per-peer ownership of remote neighbors we withdraw all
	// remote tables; peers still up will re-announce (route refresh).
	for _, n := range r.remoteNeighbors() {
		removed := n.Table.WithdrawPeer(n.Name)
		col := r.newCollector()
		for _, pt := range removed {
			col.exportToExperiments(n, pt.Prefix, nil, true)
		}
		col.release()
	}
	owner := "mesh:" + p.name
	var prefixes []netip.Prefix
	r.expRoutes.Walk(func(prefix netip.Prefix, paths []*rib.Path) bool {
		for _, pt := range paths {
			if pt.Peer == owner {
				prefixes = append(prefixes, prefix)
			}
		}
		return true
	})
	for _, prefix := range prefixes {
		for _, pt := range r.expRoutes.Paths(prefix) {
			if pt.Peer == owner {
				r.withdrawExperimentRoute(owner, prefix, pt.ID, false)
			}
		}
	}
}
