package core

import (
	"net/netip"

	"repro/internal/ethernet"
	"repro/internal/netsim"
)

// fwdNeighbor is what the data plane knows of one neighbor.
type fwdNeighbor struct {
	n *Neighbor
	// realMAC is a local neighbor's resolved MAC, zero until ARP answers.
	realMAC ethernet.MAC
}

// dropReason says why the forwarder refused a frame addressed to it; the
// closed set of core_dataplane_drops_total's reason label.
type dropReason int

const (
	dropNoRoute dropReason = iota
	dropNoMAC
	dropTTLExpired
	dropMalformed
	dropUnsupportedEthertype
	numDropReasons
)

var dropReasonNames = [numDropReasons]string{
	dropNoRoute:              "no-route",
	dropNoMAC:                "no-mac",
	dropTTLExpired:           "ttl-expired",
	dropMalformed:            "malformed",
	dropUnsupportedEthertype: "unsupported-ethertype",
}

// drop counts one refused frame, on the labelled series and — for the
// three reasons that have one — the router's exported counter.
func (r *Router) drop(why dropReason) {
	r.metrics.drops[why].Inc()
	switch why {
	case dropNoRoute:
		r.DroppedNoRoute.Add(1)
	case dropNoMAC:
		r.DroppedNoMAC.Add(1)
	case dropTTLExpired:
		r.TTLExpired.Add(1)
	}
}

// handleFrame is the router's data plane (paper §3.2.2, Fig. 2b). The
// destination MAC of each frame selects the forwarding behavior:
//
//   - a per-neighbor MAC (assigned by this router or, thanks to the
//     derived-MAC scheme, by any router on the backbone) selects that
//     neighbor's routing table: the experiment chose this route;
//   - the interface's own MAC means inbound traffic for an experiment
//     prefix, forwarded toward the announcing experiment with the source
//     MAC rewritten to identify the delivering neighbor.
//
// The packet stays wire bytes: its IPv4 header is validated where it lies
// in the received buffer — which is the sender's, possibly shared with
// other receivers, and never written — and send copies it once, with the
// new Ethernet header, into the buffer it transmits. Only IPv4 is
// forwarded; a frame of another type addressed to the router is counted
// as dropped (ARP, which the interface answers itself, is not a drop).
func (r *Router) handleFrame(ifc *netsim.Interface, frame *ethernet.Frame) {
	st := r.topo.Load()
	via, selected := st.byLocalMAC[frame.Dst]
	if !selected && frame.Dst != ifc.MAC() {
		return // flooded past the router, not sent to it
	}
	if frame.Type != ethernet.TypeIPv4 {
		if frame.Type != ethernet.TypeARP {
			r.drop(dropUnsupportedEthertype)
		}
		return
	}
	_, total, ok := ethernet.CheckIPv4(frame.Payload)
	if !ok {
		r.drop(dropMalformed)
		return
	}
	pkt := frame.Payload[:total]
	if selected {
		r.metrics.tableSelections.Inc()
		r.forwardViaNeighbor(st, ifc, frame.Src, pkt, via)
		return
	}
	r.forwardInbound(st, ifc, frame.Src, pkt)
}

// Offsets into a validated IPv4 header.
const (
	ipTTL = 8
	ipSrc = 12
	ipDst = 16
)

func ipAddrAt(pkt []byte, off int) netip.Addr {
	return netip.AddrFrom4([4]byte(pkt[off : off+4]))
}

// forwardViaNeighbor enacts the experiment's per-packet route selection:
// look up the destination in the chosen neighbor's table and forward via
// that neighbor (locally, or across the backbone for a remote neighbor).
// src is the received frame's source MAC, pkt the validated packet.
func (r *Router) forwardViaNeighbor(st *topology, in *netsim.Interface, src ethernet.MAC, pkt []byte, via fwdNeighbor) {
	n := via.n
	path := n.Table.Lookup(ipAddrAt(pkt, ipDst))
	if path == nil {
		r.drop(dropNoRoute)
		return
	}
	if pkt[ipTTL] <= 1 {
		r.drop(dropTTLExpired)
		r.sendTimeExceeded(st, in, pkt)
		return
	}
	if n.Remote {
		// Fig. 5: resolve the remote external neighbor's GlobalIP on the
		// backbone; the owning router answers with the derived MAC and
		// repeats the lookup in its own per-neighbor table.
		r.sendOverBackbone(st, path.NextHop(), src, pkt)
		return
	}

	// Direct neighbors forward to the neighbor itself; route-server
	// tables preserve each member's next hop, so the lookup decides.
	nh := path.NextHop()
	if !nh.IsValid() {
		nh = n.Addr
	}
	dstMAC := via.realMAC
	if dstMAC.IsZero() || nh != n.Addr {
		var err error
		dstMAC, err = n.ifc.Resolve(n.ifc.PrimaryAddr(), nh, arpTimeout)
		if err != nil {
			r.drop(dropNoMAC)
			return
		}
		if nh == n.Addr {
			r.learnNeighborMAC(n, dstMAC)
		}
	}
	r.send(n.ifc, dstMAC, n.ifc.MAC(), pkt)
}

// forwardInbound delivers traffic destined to experiment prefixes:
// locally connected experiments get the frame on the experiment LAN with
// the source MAC rewritten to the delivering neighbor's assigned MAC;
// prefixes announced at other PoPs are forwarded across the backbone.
func (r *Router) forwardInbound(st *topology, in *netsim.Interface, src ethernet.MAC, pkt []byte) {
	dst := ipAddrAt(pkt, ipDst)
	var owner string
	var nh netip.Addr
	if path := r.expRoutes.Lookup(dst); path != nil {
		owner, nh = path.Peer, path.NextHop()
	} else {
		// Traffic for an experiment's tunnel address (hosted services,
		// probe replies) is delivered even without an announcement —
		// including addresses registered ahead of the BGP session.
		var ok bool
		if owner, ok = st.byTunnelIP[dst]; !ok {
			r.drop(dropNoRoute)
			return
		}
	}
	if pkt[ipTTL] <= 1 {
		r.drop(dropTTLExpired)
		r.sendTimeExceeded(st, in, pkt)
		return
	}
	src = r.attributionMAC(st, src)

	if isMeshOwner(owner) {
		r.sendOverBackbone(st, nh, src, pkt)
		return
	}
	if st.expIfc == nil {
		r.drop(dropNoRoute)
		return
	}
	// Delivery goes to the address registered by whoever attached the
	// experiment's port, never to an announced next hop: an experiment
	// cannot steer traffic onto another's tap (§3.3).
	if nh = st.tunnelIP[owner]; !nh.IsValid() {
		r.drop(dropNoMAC)
		return
	}
	dstMAC, err := st.expIfc.Resolve(st.expIfc.PrimaryAddr(), nh, arpTimeout)
	if err != nil {
		r.drop(dropNoMAC)
		return
	}
	r.send(st.expIfc, dstMAC, src, pkt)
}

// sendOverBackbone forwards pkt to the router that answers for nh on the
// backbone, keeping src so attribution survives the extra hop.
func (r *Router) sendOverBackbone(st *topology, nh netip.Addr, src ethernet.MAC, pkt []byte) {
	bb := st.bbIfc
	if bb == nil {
		r.drop(dropNoRoute)
		return
	}
	dstMAC, err := bb.Resolve(bb.PrimaryAddr(), nh, arpTimeout)
	if err != nil {
		r.drop(dropNoMAC)
		return
	}
	r.metrics.backboneForwards.Inc()
	r.send(bb, dstMAC, src, pkt)
}

// send puts pkt on the wire out of an interface: the new Ethernet header
// and the packet are written once into a pooled buffer, the TTL is
// decremented and the header checksum patched there, and the buffer goes
// back to the pool when the synchronous delivery returns. A zero src
// means the interface's own MAC.
func (r *Router) send(out *netsim.Interface, dst, src ethernet.MAC, pkt []byte) {
	if src.IsZero() {
		src = out.MAC()
	}
	r.Forwarded.Add(1)
	frame := ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeIPv4, Payload: pkt}
	buf := ethernet.GetBuffer()
	buf.B = frame.AppendTo(buf.B)
	ethernet.DecrementTTL(buf.B[ethernet.HeaderLen:])
	out.SendRaw(buf.B)
	buf.Release()
}

// sendTimeExceeded emits an ICMP time-exceeded for an expired packet,
// sourced from the ingress interface's PRIMARY address — the kernel
// behavior Peering's network controller preserves so traceroutes show
// the intended hop identity (§5). This is the slow path and uses the
// struct codec.
func (r *Router) sendTimeExceeded(st *topology, in *netsim.Interface, pkt []byte) {
	src := in.PrimaryAddr()
	if !src.IsValid() {
		return
	}
	// RFC 792: the offending header and the first 64 bits of its data.
	orig := pkt[:min(len(pkt), int(pkt[0]&0x0f)*4+8)]
	exceeded := ethernet.ICMP{Type: ethernet.ICMPTimeExceed, Data: orig}
	reply := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoICMP,
		Src: src, Dst: ipAddrAt(pkt, ipSrc), Payload: exceeded.Marshal()}
	// Route the error back the way inbound experiment traffic goes.
	r.forwardInbound(st, in, ethernet.MAC{}, reply.Marshal())
}

// attributionMAC maps the frame's source to the per-neighbor MAC
// experiments use to identify the delivering neighbor. A frame from a
// local neighbor matches its real MAC; a frame relayed over the backbone
// already carries a derived per-neighbor MAC, which is preserved.
func (r *Router) attributionMAC(st *topology, src ethernet.MAC) ethernet.MAC {
	if n, ok := st.byRealMAC[src]; ok {
		r.metrics.macRewrites.Inc()
		return n.LocalMAC
	}
	if _, ok := st.byLocalMAC[src]; ok {
		return src // already attributed by another PoP
	}
	if src[0] == 0x02 && src[1] == 0x7f {
		return src // derived per-neighbor MAC from a PoP we haven't met
	}
	return ethernet.MAC{}
}
