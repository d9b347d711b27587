package peering

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/ethernet"
	"repro/internal/rib"
)

// AnnounceTo builds the community whitelisting export to one neighbor
// (§3.2.1).
func AnnounceTo(platformASN, neighborID uint32) bgp.Community {
	return core.AnnounceTo(platformASN, neighborID)
}

// NoExportTo builds the community blacklisting export to one neighbor.
func NoExportTo(platformASN, neighborID uint32) bgp.Community {
	return core.NoExportTo(platformASN, neighborID)
}

// frameHandler returns the receiver for one tunnel's data-plane frames
// (Tunnel.OnFrame). The tunnel's read loop calls it one frame at a
// time, so the IPv4 header it decodes into is that loop's own, and
// each registration gets a new one: a redialled tunnel never shares it.
func (pc *popConn) frameHandler() func([]byte) {
	ip := new(ethernet.IPv4)
	return func(data []byte) { pc.handleFrame(data, ip) }
}

// handleFrame processes a data-plane frame arriving from the tunnel:
// ARP replies feed the resolver, IPv4 packets are decoded into ip and
// lent to the OnPacket callback along with the source MAC that
// identifies the delivering neighbor (§3.2.2).
func (pc *popConn) handleFrame(data []byte, ip *ethernet.IPv4) {
	var fr ethernet.Frame
	if fr.DecodeFromBytes(data) != nil {
		return
	}
	switch fr.Type {
	case ethernet.TypeARP:
		var arp ethernet.ARP
		if arp.DecodeFromBytes(fr.Payload) != nil {
			return
		}
		switch arp.Op {
		case ethernet.ARPReply:
			pc.learnARP(arp.SenderIP, arp.SenderMAC)
		case ethernet.ARPRequest:
			// The bridge answers for our tunnel IP server-side; nothing
			// to do here.
		}
	case ethernet.TypeIPv4:
		if ip.DecodeFromBytes(fr.Payload) != nil {
			return
		}
		if ip.Protocol == ethernet.ProtoICMP {
			var m ethernet.ICMP
			if m.DecodeFromBytes(ip.Payload) == nil {
				switch m.Type {
				case ethernet.ICMPEchoReply:
					if pc.signalProbe(m.ID, m.Seq, probeReply{From: ip.Src, Reached: true}) {
						return
					}
				case ethernet.ICMPTimeExceed:
					// The embedded original datagram carries our probe's
					// ICMP header: header bytes 4-8 are ID and sequence.
					if id, seq, ok := embeddedEchoID(m.Data); ok &&
						pc.signalProbe(id, seq, probeReply{From: ip.Src}) {
						return
					}
				}
			}
		}
		pc.pktMu.Lock()
		fn := pc.onPacket
		pc.pktMu.Unlock()
		if fn != nil {
			fn(ip, fr.Src)
		}
	}
}

func (pc *popConn) learnARP(addr netip.Addr, mac ethernet.MAC) {
	pc.arpMu.Lock()
	pc.arp[addr] = mac
	waiters := pc.arpWait[addr]
	delete(pc.arpWait, addr)
	pc.arpMu.Unlock()
	for _, ch := range waiters {
		ch <- mac
	}
}

// resolve performs ARP through the tunnel for a local-pool next hop,
// exactly as a hardware router attached to the LAN would (Fig. 2b).
func (pc *popConn) resolve(target netip.Addr, timeout time.Duration) (ethernet.MAC, error) {
	pc.arpMu.Lock()
	if mac, ok := pc.arp[target]; ok {
		pc.arpMu.Unlock()
		return mac, nil
	}
	ch := make(chan ethernet.MAC, 1)
	pc.arpWait[target] = append(pc.arpWait[target], ch)
	pc.arpMu.Unlock()

	mac := clientMACFor(pc)
	req := ethernet.NewARPRequest(mac, pc.local(), target)
	fr := req.Frame(mac)
	if err := pc.transport().SendFrame(fr.Marshal()); err != nil {
		return ethernet.MAC{}, err
	}
	select {
	case m := <-ch:
		return m, nil
	case <-time.After(timeout):
		return ethernet.MAC{}, fmt.Errorf("peering: ARP for %s via %s timed out", target, pc.popName)
	}
}

// clientMACFor derives the client-side MAC; it must match the bridge's
// MAC so LAN frames reach the tunnel. The bridge index is recoverable
// from the assigned address's last octet.
func clientMACFor(pc *popConn) ethernet.MAC {
	raw := pc.local().As4()
	return ethernet.MAC{0x0a, 0x00, 0, 0, 0, raw[3]}
}

// OnPacket installs the receiver for data-plane packets arriving at a
// PoP. fromNeighbor is the per-neighbor MAC identifying which
// interconnection delivered the packet.
//
// ip is lent until fn returns: the tunnel's read loop decodes every
// packet into the same header, and ip.Payload aliases the tunnel's read
// buffer. A receiver that keeps the packet or its payload past its
// return must copy it.
func (c *Client) OnPacket(popName string, fn func(ip *ethernet.IPv4, fromNeighbor ethernet.MAC)) error {
	pc, err := c.conn(popName)
	if err != nil {
		return err
	}
	pc.pktMu.Lock()
	pc.onPacket = fn
	pc.pktMu.Unlock()
	return nil
}

// pathFor picks the route for dst at a PoP: the path learned through
// neighbor viaNeighborID, or the decision-process best when
// viaNeighborID is 0.
func (pc *popConn) pathFor(dst netip.Addr, viaNeighborID uint32) *rib.Path {
	if viaNeighborID == 0 {
		return pc.table.Lookup(dst)
	}
	var found *rib.Path
	pc.table.Walk(func(prefix netip.Prefix, paths []*rib.Path) bool {
		if !prefix.Contains(dst) {
			return true
		}
		for _, p := range paths {
			if uint32(p.ID) == viaNeighborID {
				if found == nil || p.Prefix.Bits() > found.Prefix.Bits() {
					found = p
				}
			}
		}
		return true
	})
	return found
}

// SendIP routes one IPv4 packet out a PoP. viaNeighborID selects the
// egress interconnection per packet (0 = best route): the packet is
// framed to the MAC that the chosen neighbor's local next hop resolves
// to — the vBGP data-plane delegation in action.
func (c *Client) SendIP(popName string, viaNeighborID uint32, pkt *ethernet.IPv4) error {
	pc, err := c.conn(popName)
	if err != nil {
		return err
	}
	path := pc.pathFor(pkt.Dst, viaNeighborID)
	if path == nil {
		return fmt.Errorf("peering: no route to %s via neighbor %d at %s", pkt.Dst, viaNeighborID, popName)
	}
	nh := path.NextHop()
	mac, err := pc.resolve(nh, 2*time.Second)
	if err != nil {
		return err
	}
	if !pkt.Src.IsValid() {
		pkt.Src = pc.local()
	}
	// Ethernet header, IP header and payload go into one pooled buffer;
	// the tunnel copies it before SendFrame returns.
	hdr := ethernet.Frame{Dst: mac, Src: clientMACFor(pc), Type: ethernet.TypeIPv4}
	buf := ethernet.GetBuffer()
	buf.B = pkt.AppendTo(hdr.AppendTo(buf.B))
	err = pc.transport().SendFrame(buf.B)
	buf.Release()
	return err
}

// probeReply is what a probe waiter receives: the responding address
// and whether the destination itself answered (echo reply) as opposed
// to an intermediate hop (time exceeded).
type probeReply struct {
	From    netip.Addr
	Reached bool
}

// signalProbe wakes the waiter for (id, seq), if any.
func (pc *popConn) signalProbe(id, seq uint16, r probeReply) bool {
	pc.echoMu.Lock()
	ch := pc.echoWait[[2]uint16{id, seq}]
	pc.echoMu.Unlock()
	if ch == nil {
		return false
	}
	select {
	case ch <- r:
	default:
	}
	return true
}

// embeddedEchoID recovers the probe ID/seq from the original datagram an
// ICMP error embeds (IP header + first 8 payload bytes, RFC 792).
func embeddedEchoID(data []byte) (id, seq uint16, ok bool) {
	if len(data) < ethernet.IPv4HeaderLen+8 {
		return 0, 0, false
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < ethernet.IPv4HeaderLen || len(data) < ihl+8 {
		return 0, 0, false
	}
	icmp := data[ihl:]
	return uint16(icmp[4])<<8 | uint16(icmp[5]), uint16(icmp[6])<<8 | uint16(icmp[7]), true
}

// probe sends one echo with the given TTL and waits for whichever
// response arrives first.
func (c *Client) probe(popName string, via uint32, dst netip.Addr, ttl uint8, id, seq uint16, timeout time.Duration) (probeReply, time.Duration, error) {
	pc, err := c.conn(popName)
	if err != nil {
		return probeReply{}, 0, err
	}
	ch := make(chan probeReply, 1)
	key := [2]uint16{id, seq}
	pc.echoMu.Lock()
	pc.echoWait[key] = ch
	pc.echoMu.Unlock()
	defer func() {
		pc.echoMu.Lock()
		delete(pc.echoWait, key)
		pc.echoMu.Unlock()
	}()

	echo := ethernet.ICMP{Type: ethernet.ICMPEchoRequest, ID: id, Seq: seq, Data: []byte("peering-probe")}
	start := time.Now()
	err = c.SendIP(popName, via, &ethernet.IPv4{
		TTL: ttl, Protocol: ethernet.ProtoICMP, Dst: dst, Payload: echo.Marshal(),
	})
	if err != nil {
		return probeReply{}, 0, err
	}
	select {
	case r := <-ch:
		return r, time.Since(start), nil
	case <-time.After(timeout):
		return probeReply{}, 0, fmt.Errorf("peering: probe of %s (ttl %d) via neighbor %d timed out", dst, ttl, via)
	}
}

// Ping sends an ICMP echo request to dst via the chosen neighbor
// (0 = best route) and waits for the reply, returning the round-trip
// time — the toolkit's end-to-end connectivity probe.
func (c *Client) Ping(popName string, viaNeighborID uint32, dst netip.Addr, id, seq uint16, timeout time.Duration) (time.Duration, error) {
	r, rtt, err := c.probe(popName, viaNeighborID, dst, 64, id, seq, timeout)
	if err != nil {
		return 0, err
	}
	if !r.Reached {
		return 0, fmt.Errorf("peering: ping %s answered by intermediate hop %s", dst, r.From)
	}
	return rtt, nil
}

// LocalIP returns the client's tunnel address at a PoP (the next hop it
// announces with).
func (c *Client) LocalIP(popName string) netip.Addr {
	pc, err := c.conn(popName)
	if err != nil {
		return netip.Addr{}
	}
	return pc.local()
}
