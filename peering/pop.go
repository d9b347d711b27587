package peering

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bpf"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/guard"
	"repro/internal/inet"
	"repro/internal/ixp"
	"repro/internal/netsim"
	"repro/internal/pipe"
	"repro/internal/policy"
	"repro/internal/rpki"
	"repro/internal/telemetry"
	"repro/internal/tunnel"
)

// PoP is one point of presence: a vBGP router plus its experiment LAN
// and interconnections.
type PoP struct {
	// Name of the PoP.
	Name string
	// Router is the PoP's vBGP instance.
	Router *core.Router
	// RPKI is the PoP's RTR client (nil without a platform ROA store):
	// the router's live validated cache, synchronized from the
	// platform's trust anchor.
	RPKI *rpki.Client

	platform *Platform
	expLAN   *netsim.Segment
	expCIDR  netip.Prefix
	bbAddr   netip.Addr
	health   *guard.Health

	mu           sync.Mutex
	expHosts     int
	speakers     []*inet.Speaker
	servers      []*ixp.RouteServer
	clients      []*popConn // in-process experiment clients with a tunnel here
	guardPrev    uint64
	guardPrevAt  time.Time
	lastPressure guard.Pressure
}

// newConnPair returns both ends of an in-memory transport.
func newConnPair() (net.Conn, net.Conn) {
	a, b := pipe.New()
	return a, b
}

// ConnectTransit attaches an AS from the platform topology as a transit
// provider of the PoP (the AS treats the platform as a customer), on a
// dedicated segment, and starts the BGP session. maxRoutes bounds the
// routes announced (0 = full table).
func (pop *PoP) ConnectTransit(asn uint32, maxRoutes int) (*core.Neighbor, error) {
	return pop.connectTopologyNeighbor(asn, inet.RelCustomer, maxRoutes)
}

// ConnectPeer attaches an AS as a settlement-free peer of the PoP.
func (pop *PoP) ConnectPeer(asn uint32, maxRoutes int) (*core.Neighbor, error) {
	return pop.connectTopologyNeighbor(asn, inet.RelPeer, maxRoutes)
}

func (pop *PoP) connectTopologyNeighbor(asn uint32, rel inet.Rel, maxRoutes int) (*core.Neighbor, error) {
	topo := pop.platform.Topology()
	if topo == nil {
		return nil, fmt.Errorf("peering: platform has no topology")
	}
	if topo.AS(asn) == nil {
		return nil, fmt.Errorf("peering: AS%d not in topology", asn)
	}
	id := pop.platform.NextNeighborID()
	name := fmt.Sprintf("as%d", asn)
	seg := netsim.NewSegment(fmt.Sprintf("%s-%s-link", pop.Name, name))
	nbrAddr := netip.AddrFrom4([4]byte{198, 18, byte(id >> 8), byte(id)})
	rtrAddr := netip.AddrFrom4([4]byte{198, 19, byte(id >> 8), byte(id)})
	pop.Router.AddInterface("nbr-"+name, "neighbor", netip.PrefixFrom(rtrAddr, 16), seg)

	// A host stands in for the neighbor's edge: its address resolves,
	// delivered frames are observable, it answers echo probes for any
	// destination behind it, and it routes replies back through the
	// platform.
	h := netsim.NewHost(name)
	h.EchoAll = true
	hifc := h.AddInterface("eth0", ethernet.MAC{0x02, 0xa5, byte(asn >> 24), byte(asn >> 16), byte(asn >> 8), byte(asn)},
		netip.PrefixFrom(nbrAddr, 16), seg)
	h.SetDefaultRoute(rtrAddr, hifc)

	cr, cn := newConnPair()
	cr = pop.platform.chaosWrap("neighbor", name, pop.Name, cr)
	ncfg := core.NeighborConfig{
		Name: name, ID: id, ASN: asn, Addr: nbrAddr,
		Interface: "nbr-" + name, Conn: cr,
	}
	if pop.platform.resilient() {
		// Chaos mode: the router redials the neighbor after transport
		// loss (a fresh speaker stands in for the neighbor's restarted
		// edge router) and retains its routes across the restart.
		ncfg.GracefulRestart = neighborGRTime
		ncfg.Redial = func() (net.Conn, error) {
			rr, rn := newConnPair()
			rr = pop.platform.chaosWrap("neighbor", name, pop.Name, rr)
			sp := inet.NewSpeaker(topo, asn, nbrAddr, rel, pop.platform.ASN(), maxRoutes, rn)
			pop.mu.Lock()
			pop.speakers = append(pop.speakers, sp)
			pop.mu.Unlock()
			return rr, nil
		}
	}
	nbr, err := pop.Router.AddNeighbor(ncfg)
	if err != nil {
		return nil, err
	}
	sp := inet.NewSpeaker(topo, asn, nbrAddr, rel, pop.platform.ASN(), maxRoutes, cn)
	pop.mu.Lock()
	pop.speakers = append(pop.speakers, sp)
	pop.mu.Unlock()
	return nbr, nil
}

// ConnectIXP attaches the PoP to an exchange: one session per route
// server plus bilateral sessions with the exchange's bilateral members.
// maxRoutesPerMember bounds each member's table (0 = full).
func (pop *PoP) ConnectIXP(x *ixp.IXP, routeServers int, maxRoutesPerMember int) error {
	addr := netip.AddrFrom4([4]byte{198, 19, 255, byte(len(pop.Router.Neighbors())%250 + 1)})
	ifcName := "ix-" + x.Name
	pop.Router.AddInterface(ifcName, "neighbor", netip.PrefixFrom(addr, 16), x.Fabric)

	for i := 0; i < routeServers; i++ {
		id := pop.platform.NextNeighborID()
		name := fmt.Sprintf("%s-rs%d", x.Name, i+1)
		cr, cn := newConnPair()
		if _, err := pop.Router.AddNeighbor(core.NeighborConfig{
			Name: name, ID: id, ASN: x.RouteServerASN,
			Addr:      netip.AddrFrom4([4]byte{198, 19, 254, byte(i + 1)}),
			Interface: ifcName, Conn: cr, RouteServer: true,
		}); err != nil {
			return err
		}
		rs := x.ConnectRouteServer(name, pop.platform.ASN(), cn, maxRoutesPerMember)
		pop.mu.Lock()
		pop.servers = append(pop.servers, rs)
		pop.mu.Unlock()
	}
	for _, m := range x.Members() {
		if !m.Bilateral {
			continue
		}
		id := pop.platform.NextNeighborID()
		cr, cn := newConnPair()
		if _, err := pop.Router.AddNeighbor(core.NeighborConfig{
			Name: fmt.Sprintf("%s-as%d", x.Name, m.ASN), ID: id, ASN: m.ASN,
			Addr: m.Addr, Interface: ifcName, Conn: cr,
		}); err != nil {
			return err
		}
		sp, err := x.ConnectBilateral(m.ASN, pop.platform.ASN(), maxRoutesPerMember, cn)
		if err != nil {
			return err
		}
		_ = sp
		pop.mu.Lock()
		pop.speakers = append(pop.speakers, sp)
		pop.mu.Unlock()
	}
	return nil
}

// ExpLAN returns the PoP's experiment segment.
func (pop *PoP) ExpLAN() *netsim.Segment { return pop.expLAN }

// ServeTunnel authenticates an inbound experiment tunnel on carrier and,
// on success, bridges the tunnel onto the experiment LAN: a bridge
// interface carries the client's MAC and answers ARP for its tunnel IP;
// every frame the experiment sends enters the LAN through the PoP's
// data-plane security filters (source-address validation compiled from
// the experiment's allocation, §4.7), and frames for the client's MAC
// flow back through the tunnel.
func (pop *PoP) ServeTunnel(carrier net.Conn) (*tunnel.Tunnel, error) {
	pop.platform.mu.Lock()
	creds := make(tunnel.Credentials, len(pop.platform.creds))
	for k, v := range pop.platform.creds {
		creds[k] = v
	}
	pop.platform.mu.Unlock()

	pop.mu.Lock()
	pop.expHosts++
	idx := pop.expHosts
	pop.mu.Unlock()
	clientIP := clientAddr(pop.expCIDR, idx)
	clientMAC := ethernet.MAC{0x0a, 0x00, 0, 0, 0, byte(idx)}
	blob := []byte(fmt.Sprintf("%s %d %s", clientIP, pop.expCIDR.Bits(), lastUsable(pop.expCIDR)))

	tun, err := tunnel.Serve(carrier, creds, func(string) []byte { return blob })
	if err != nil {
		return nil, err
	}
	alloc := pop.platform.tapAllocation(tun.Name)
	if alloc == nil {
		tun.Close()
		return nil, fmt.Errorf("peering: experiment %s not registered", tun.Name)
	}

	bridge := netsim.NewInterface(pop.Name+"-tap-"+tun.Name, clientMAC)
	bridge.AddAddr(clientIP) // answers ARP for the client's tunnel IP
	// The tap moves wire bytes: LAN frames into the tunnel as received,
	// tunnel frames onto the LAN as read. Neither side keeps the slice.
	bridge.SetRawHandler(func(_ *netsim.Interface, data []byte) {
		_ = tun.SendFrame(data)
	})

	// Data-plane enforcement (anti-spoofing, §4.7): experiment frames may
	// only source from the experiment's allocation, which register
	// republishes whenever it changes, or from this tap's tunnel address.
	self, err := bpf.SourceIPFilter(tun.Name, []netip.Prefix{netip.PrefixFrom(clientIP, 32)})
	if err != nil {
		tun.Close()
		return nil, err
	}
	spoofed := telemetry.Default().Counter("peering_tap_drops_total",
		telemetry.L("pop", pop.Name), telemetry.L("experiment", tun.Name), telemetry.L("reason", "spoofed"))
	bridge.AddEgressFilter(netsim.FilterFunc(func(data []byte) netsim.Verdict {
		if alloc.Load().Run(data) == bpf.VerdictPass || self.Run(data) == bpf.VerdictPass {
			return netsim.VerdictPass
		}
		spoofed.Inc()
		return netsim.VerdictDrop
	}))

	tun.OnFrame(func(data []byte) {
		if len(data) >= ethernet.HeaderLen && ethernet.MAC(data[6:12]).IsZero() {
			// No source MAC: Send stamps the tap's.
			var fr ethernet.Frame
			_ = fr.DecodeFromBytes(data)
			bridge.Send(&fr)
			return
		}
		bridge.SendRaw(data)
	})
	bridge.Attach(pop.expLAN)
	pop.Router.SetExperimentTunnelIP(tun.Name, clientIP)
	go func() {
		<-tun.Done()
		bridge.Attach(nil)
		pop.Router.ClearExperimentTunnelIP(tun.Name, clientIP)
	}()
	return tun, nil
}

// register authorizes e with the enforcement engine and, in the same
// call, republishes its compiled allocation to every open tunnel tap of
// the experiment: the taps narrow before the engine does, so a shrunk
// allocation's sources drop as soon as the engine frees them (§4.7).
// Every change the platform makes to a registration goes through
// register, unregister or syncPolicy.
func (p *Platform) register(e *policy.Experiment) {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	p.publishLocked(e.Name, e.Prefixes)
	p.Engine.Register(e)
}

// unregister drops an experiment's registration and publishes the empty
// allocation: its open taps fail closed, passing only ARP and their own
// tunnel address.
func (p *Platform) unregister(name string) {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	p.publishLocked(name, nil)
	delete(p.alloc, name)
	p.Engine.Unregister(name)
}

// syncPolicy reconciles the engine with a deployed model, as register
// and unregister do one experiment at a time: each published allocation
// becomes the one the engine now holds, or the empty one.
func (p *Platform) syncPolicy(m config.Model) {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	m.SyncPolicy(p.Engine)
	for name := range p.alloc {
		if e := p.Engine.Experiment(name); e != nil {
			p.publishLocked(name, e.Prefixes)
			continue
		}
		p.publishLocked(name, nil)
		delete(p.alloc, name)
	}
}

// tapAllocation returns the published allocation a new tap of the
// experiment reads, or nil when the experiment is not registered.
func (p *Platform) tapAllocation(name string) *atomic.Pointer[bpf.Program] {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	e := p.Engine.Experiment(name)
	if e == nil {
		return nil
	}
	if slot := p.alloc[name]; slot != nil {
		return slot
	}
	return p.publishLocked(name, e.Prefixes)
}

// publishLocked compiles prefixes into the program an experiment's taps
// read. An allocation that does not compile publishes the empty one, so
// the taps fail closed.
func (p *Platform) publishLocked(name string, prefixes []netip.Prefix) *atomic.Pointer[bpf.Program] {
	prog, err := bpf.SourceIPFilter(name, prefixes)
	if err != nil {
		prog, _ = bpf.SourceIPFilter(name, nil)
	}
	slot := p.alloc[name]
	if slot == nil {
		slot = new(atomic.Pointer[bpf.Program])
		p.alloc[name] = slot
	}
	slot.Store(prog)
	return slot
}

// clientAddr allocates the idx-th client address in the experiment LAN.
func clientAddr(cidr netip.Prefix, idx int) netip.Addr {
	raw := cidr.Masked().Addr().As4()
	v := uint32(raw[0])<<24 | uint32(raw[1])<<16 | uint32(raw[2])<<8 | uint32(raw[3])
	v += uint32(idx)
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// ConnectExperimentBGP attaches the experiment's BGP session carried on
// tun to the PoP's router. The router-side control conn goes through
// the fault injector as class "experiment"; severing it kills the whole
// tunnel (control and data share one carrier), which is exactly how an
// OpenVPN drop takes BIRD down with it.
func (pop *PoP) ConnectExperimentBGP(tun *tunnel.Tunnel, expASN uint32) error {
	conn := pop.platform.chaosWrap("experiment", tun.Name, pop.Name, tun.Control())
	_, err := pop.Router.ConnectExperiment(tun.Name, expASN, conn)
	return err
}
