package bgp

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Capability codes (RFC 5492 registry).
const (
	CapMultiprotocol   = 1  // RFC 4760
	CapRouteRefresh    = 2  // RFC 2918
	CapGracefulRestart = 64 // RFC 4724
	CapAS4             = 65 // RFC 6793
	CapAddPath         = 69 // RFC 7911
)

// Graceful restart flag bits (RFC 4724 §3).
const (
	grRestartFlag = 0x8000 // R bit: speaker has restarted
	grForwardFlag = 0x80   // per-family F bit: forwarding state preserved
	grRestartMask = 0x0fff // 12-bit restart time in seconds
)

// GRFamily is one address family advertised in the graceful restart
// capability.
type GRFamily struct {
	Family AFISAFI
	// Forwarding is the F bit: forwarding state for this family was
	// preserved across the restart.
	Forwarding bool
}

// GracefulRestart is the RFC 4724 capability: the peer will retain this
// speaker's routes for Time after the session drops, marking them stale
// until re-advertisement ends with an End-of-RIB marker.
type GracefulRestart struct {
	// Restarting is the R bit: this session is the re-establishment
	// after a restart.
	Restarting bool
	// Time is how long the peer should retain routes (12-bit seconds).
	Time time.Duration
	// Families lists the address families covered.
	Families []GRFamily
}

// ADD-PATH send/receive modes (RFC 7911 §4).
const (
	AddPathReceive     uint8 = 1
	AddPathSend        uint8 = 2
	AddPathSendReceive uint8 = 3
)

// AFISAFI is an address family pair used in capability negotiation.
type AFISAFI struct {
	AFI  uint16
	SAFI uint8
}

// IPv4Unicast and IPv6Unicast are the address families vBGP uses.
var (
	IPv4Unicast = AFISAFI{AFIIPv4, SAFIUnicast}
	IPv6Unicast = AFISAFI{AFIIPv6, SAFIUnicast}
)

// Capabilities is the decoded capability set of an OPEN message.
type Capabilities struct {
	// AS4 carries the 4-octet AS number, or 0 when the capability is
	// absent.
	AS4 uint32
	// MP lists the multiprotocol address families advertised.
	MP []AFISAFI
	// RouteRefresh indicates RFC 2918 support.
	RouteRefresh bool
	// AddPath maps address families to the advertised send/receive mode.
	AddPath map[AFISAFI]uint8
	// GR is the graceful restart capability, or nil when absent.
	GR *GracefulRestart
}

// marshalCapabilities encodes the capability set as a single OPEN optional
// parameter of type 2 (RFC 5492).
func marshalCapabilities(c *Capabilities) []byte {
	var caps []byte
	for _, f := range c.MP {
		caps = append(caps, CapMultiprotocol, 4)
		caps = binary.BigEndian.AppendUint16(caps, f.AFI)
		caps = append(caps, 0, f.SAFI)
	}
	if c.RouteRefresh {
		caps = append(caps, CapRouteRefresh, 0)
	}
	if c.GR != nil {
		secs := uint16(c.GR.Time/time.Second) & grRestartMask
		if c.GR.Restarting {
			secs |= grRestartFlag
		}
		caps = append(caps, CapGracefulRestart, byte(2+4*len(c.GR.Families)))
		caps = binary.BigEndian.AppendUint16(caps, secs)
		for _, f := range c.GR.Families {
			caps = binary.BigEndian.AppendUint16(caps, f.Family.AFI)
			flags := byte(0)
			if f.Forwarding {
				flags = grForwardFlag
			}
			caps = append(caps, f.Family.SAFI, flags)
		}
	}
	if c.AS4 != 0 {
		caps = append(caps, CapAS4, 4)
		caps = binary.BigEndian.AppendUint32(caps, c.AS4)
	}
	if len(c.AddPath) > 0 {
		body := make([]byte, 0, 4*len(c.AddPath))
		// Encode in a stable order for test determinism.
		for _, f := range []AFISAFI{IPv4Unicast, IPv6Unicast} {
			if mode, ok := c.AddPath[f]; ok {
				body = binary.BigEndian.AppendUint16(body, f.AFI)
				body = append(body, f.SAFI, mode)
			}
		}
		for f, mode := range c.AddPath {
			if f != IPv4Unicast && f != IPv6Unicast {
				body = binary.BigEndian.AppendUint16(body, f.AFI)
				body = append(body, f.SAFI, mode)
			}
		}
		caps = append(caps, CapAddPath, byte(len(body)))
		caps = append(caps, body...)
	}
	if len(caps) == 0 {
		return nil
	}
	out := []byte{2, byte(len(caps))} // optional parameter type 2: capabilities
	return append(out, caps...)
}

// parseCapabilities decodes the optional parameter block of an OPEN.
func parseCapabilities(data []byte) (*Capabilities, error) {
	c := &Capabilities{AddPath: make(map[AFISAFI]uint8)}
	for len(data) > 0 {
		if len(data) < 2 {
			return nil, notif(ErrCodeOpen, 0)
		}
		ptype, plen := data[0], int(data[1])
		if len(data) < 2+plen {
			return nil, notif(ErrCodeOpen, 0)
		}
		body := data[2 : 2+plen]
		data = data[2+plen:]
		if ptype != 2 {
			continue // ignore non-capability optional parameters
		}
		for len(body) > 0 {
			if len(body) < 2 {
				return nil, notif(ErrCodeOpen, 0)
			}
			code, clen := body[0], int(body[1])
			if len(body) < 2+clen {
				return nil, notif(ErrCodeOpen, 0)
			}
			val := body[2 : 2+clen]
			body = body[2+clen:]
			switch code {
			case CapMultiprotocol:
				if clen != 4 {
					return nil, fmt.Errorf("bgp: bad multiprotocol capability length %d", clen)
				}
				c.MP = append(c.MP, AFISAFI{binary.BigEndian.Uint16(val), val[3]})
			case CapRouteRefresh:
				c.RouteRefresh = true
			case CapAS4:
				if clen != 4 {
					return nil, fmt.Errorf("bgp: bad AS4 capability length %d", clen)
				}
				c.AS4 = binary.BigEndian.Uint32(val)
			case CapGracefulRestart:
				if clen < 2 {
					return nil, fmt.Errorf("bgp: bad graceful restart capability length %d", clen)
				}
				hdr := binary.BigEndian.Uint16(val)
				gr := &GracefulRestart{
					Restarting: hdr&grRestartFlag != 0,
					Time:       time.Duration(hdr&grRestartMask) * time.Second,
				}
				for fam := val[2:]; len(fam) >= 4; fam = fam[4:] {
					gr.Families = append(gr.Families, GRFamily{
						Family:     AFISAFI{binary.BigEndian.Uint16(fam), fam[2]},
						Forwarding: fam[3]&grForwardFlag != 0,
					})
				}
				c.GR = gr
			case CapAddPath:
				for len(val) >= 4 {
					f := AFISAFI{binary.BigEndian.Uint16(val), val[2]}
					c.AddPath[f] = val[3]
					val = val[4:]
				}
			}
		}
	}
	return c, nil
}

// negotiateAddPath returns whether ADD-PATH applies in each direction for
// family f given local and remote capability sets: we send path IDs when
// we advertised send and the peer advertised receive, and vice versa.
func negotiateAddPath(local, remote *Capabilities, f AFISAFI) (send, recv bool) {
	l, r := local.AddPath[f], remote.AddPath[f]
	send = l&AddPathSend != 0 && r&AddPathReceive != 0
	recv = l&AddPathReceive != 0 && r&AddPathSend != 0
	return send, recv
}
