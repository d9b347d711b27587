package peering

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/tunnel"
)

// clientGRTime is the restart window a resilient client advertises: the
// router retains the experiment's routes as stale for this long after a
// tunnel failure, giving the supervisor time to redial and replay.
const clientGRTime = 10 * time.Second

// startResilientBGP runs the experiment session under a bgp.Supervisor
// whose dial path rebuilds the whole tunnel, mirroring how a real
// experiment's OpenVPN client and BIRD daemon recover independently of
// the PoP. A client's session at an in-process PoP is supervised exactly
// when the platform's own sessions are (Platform.resilient): when the
// tunnel or control session dies with a transport error, the client
// redials the tunnel (exponential backoff with jitter), replays its live
// announcements with the newly assigned tunnel address as next hop, and
// closes the RFC 4724 window with End-of-RIB. Administrative
// StopBGP/CloseTunnel still tear down immediately.
func (c *Client) startResilientBGP(pc *popConn) error {
	if err := pc.pop.ConnectExperimentBGP(pc.serverTun, c.ASN); err != nil {
		return err
	}
	scfg := bgp.Config{
		LocalASN:  c.ASN,
		RemoteASN: pc.platformASN,
		LocalID:   pc.local(),
		MRAI:      c.MRAI,
		PeerName:  c.Name + "@" + pc.popName,
		Families:  []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast},
		AddPath: map[bgp.AFISAFI]uint8{
			bgp.IPv4Unicast: bgp.AddPathSendReceive,
			bgp.IPv6Unicast: bgp.AddPathSendReceive,
		},
		GracefulRestart: &bgp.GracefulRestartConfig{RestartTime: clientGRTime},
		OnUpdate:        func(u *bgp.Update) { pc.handleUpdate(u) },
		OnEstablished: func() {
			pc.signalEstablished()
			c.replayAnnouncements(pc)
		},
	}
	sup := bgp.NewSupervisor(bgp.SupervisorConfig{
		Session:   scfg,
		Conn:      pc.transport().Control(),
		Dial:      func() (net.Conn, error) { return c.redialTunnel(pc) },
		OnSession: pc.setSession,
	})
	pc.stateMu.Lock()
	pc.sup = sup
	pc.stateMu.Unlock()
	sup.Start()
	return nil
}

// redialTunnel replaces a dead tunnel end to end: new authenticated
// carrier, new tunnel address (the PoP allocates a fresh one), new
// router-side BGP attachment. Returns the new control channel for the
// supervisor's next session incarnation.
func (c *Client) redialTunnel(pc *popConn) (net.Conn, error) {
	tunnel.CountReconnectAttempt()
	// The old carrier is dead (that is why we are here); make sure its
	// tunnel state is fully torn down before replacing it.
	_ = pc.transport().Close()
	tun, serverTun, err := dialPopTunnel(pc.pop, c.Name, c.Key)
	if err != nil {
		return nil, err
	}
	var bits int
	var ipStr, rtrStr string
	if _, err := fmt.Sscanf(string(tun.Payload), "%s %d %s", &ipStr, &bits, &rtrStr); err != nil {
		tun.Close()
		return nil, fmt.Errorf("peering: bad tunnel config %q: %v", tun.Payload, err)
	}
	tun.OnFrame(pc.frameHandler())
	pc.stateMu.Lock()
	pc.tun = tun
	pc.serverTun = serverTun
	pc.localIP = netip.MustParseAddr(ipStr)
	pc.routerAddr = netip.MustParseAddr(rtrStr)
	pc.stateMu.Unlock()
	// Reattach the router side. If the router has not yet noticed the
	// old session's death this fails; the supervisor backs off and
	// retries with a fresh tunnel.
	if err := pc.pop.ConnectExperimentBGP(serverTun, c.ASN); err != nil {
		tun.Close()
		return nil, err
	}
	return tun.Control(), nil
}

// replayAnnouncements re-sends every recorded announcement (rebuilt
// against the current tunnel address) and closes with End-of-RIB for
// both families so the router sweeps whatever was not replayed.
func (c *Client) replayAnnouncements(pc *popConn) {
	sess := pc.session()
	if sess == nil {
		return
	}
	pc.annMu.Lock()
	anns := make(map[annKey]announcement, len(pc.anns))
	for k, a := range pc.anns {
		anns[k] = a
	}
	pc.annMu.Unlock()
	nextHop := pc.local()
	for k, a := range anns {
		_ = sess.Send(buildAnnouncement(c.ASN, pc.platformASN, nextHop, k.prefix, a))
	}
	_ = sess.SendEndOfRIB(bgp.IPv4Unicast)
	_ = sess.SendEndOfRIB(bgp.IPv6Unicast)
}
