package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Message is implemented by all BGP message types.
type Message interface {
	// Type returns the message type code.
	Type() uint8
	// appendBody appends the message payload (everything after the
	// header) to b in place and returns the extended slice, so batched
	// encodes reuse one pooled buffer instead of allocating per message.
	// opts carries per-session negotiation state that affects encoding.
	appendBody(b []byte, opts *codecOpts) []byte
}

// codecOpts carries session-negotiated options that change message wire
// format.
type codecOpts struct {
	as4       bool // 4-octet AS_PATH encoding
	addPathV4 bool // path IDs in IPv4 NLRI
	addPathV6 bool // path IDs in MP IPv6 NLRI
}

// Open is a BGP OPEN message.
type Open struct {
	Version  uint8
	ASN      uint16 // AS_TRANS when the real ASN needs 4 octets
	HoldTime uint16
	BGPID    netip.Addr // router ID, always an IPv4 address
	Caps     *Capabilities
}

// Type implements Message.
func (*Open) Type() uint8 { return MsgOpen }

func (m *Open) appendBody(b []byte, _ *codecOpts) []byte {
	b = append(b, m.Version)
	b = binary.BigEndian.AppendUint16(b, m.ASN)
	b = binary.BigEndian.AppendUint16(b, m.HoldTime)
	id := m.BGPID.As4()
	b = append(b, id[:]...)
	opt := marshalCapabilities(m.Caps)
	b = append(b, byte(len(opt)))
	return append(b, opt...)
}

// Update is a BGP UPDATE message. IPv4 reachability travels in
// Withdrawn/NLRI; IPv6 reachability travels in the MP attributes and is
// surfaced here as MPReach/MPUnreach after decoding.
type Update struct {
	Withdrawn []NLRI
	Attrs     *PathAttrs
	NLRI      []NLRI

	// MPReach and MPUnreach are IPv6 routes carried in MP_REACH_NLRI /
	// MP_UNREACH_NLRI; the IPv6 next hop is Attrs.MPNextHop.
	MPReach   []NLRI
	MPUnreach []NLRI

	// eorV6 marks this update as an IPv6 End-of-RIB: the body carries a
	// bare MP_UNREACH_NLRI attribute with no routes (RFC 4724 §2).
	eorV6 bool
}

// EndOfRIB builds the RFC 4724 End-of-RIB marker for a family: an empty
// UPDATE for IPv4 unicast, an UPDATE whose only content is an empty
// MP_UNREACH_NLRI attribute for IPv6 unicast.
func EndOfRIB(f AFISAFI) *Update {
	if f == IPv6Unicast {
		return &Update{eorV6: true}
	}
	return &Update{}
}

// EndOfRIBFamily reports whether the (decoded) update is an End-of-RIB
// marker and for which family. An empty UPDATE with no attributes is the
// IPv4 marker; one whose attributes decoded to an empty set alongside an
// empty MP_UNREACH is the IPv6 marker.
func (m *Update) EndOfRIBFamily() (AFISAFI, bool) {
	if len(m.Withdrawn) != 0 || len(m.NLRI) != 0 || len(m.MPReach) != 0 || len(m.MPUnreach) != 0 {
		return AFISAFI{}, false
	}
	if m.eorV6 {
		return IPv6Unicast, true
	}
	if m.Attrs == nil {
		return IPv4Unicast, true
	}
	a := m.Attrs
	empty := !a.HasOrigin && a.ASPath == nil && !a.NextHop.IsValid() &&
		!a.MPNextHop.IsValid() && !a.HasMED && !a.HasLocalPref &&
		!a.AtomicAggregate && a.Aggregator == nil &&
		len(a.Communities) == 0 && len(a.LargeCommunities) == 0 && len(a.Unknown) == 0
	if empty {
		return IPv6Unicast, true
	}
	return AFISAFI{}, false
}

// Type implements Message.
func (*Update) Type() uint8 { return MsgUpdate }

func (m *Update) appendBody(b []byte, opts *codecOpts) []byte {
	// Both variable-length sections are appended in place and their
	// two-byte length prefixes patched afterwards.
	wdAt := len(b)
	b = append(b, 0, 0)
	for _, n := range m.Withdrawn {
		b = appendNLRI(b, n, opts.addPathV4)
	}
	binary.BigEndian.PutUint16(b[wdAt:], uint16(len(b)-wdAt-2))
	attrAt := len(b)
	b = append(b, 0, 0)
	b = appendAttrs(b, m.Attrs, opts.as4, m.MPReach, m.MPUnreach, opts.addPathV6)
	if m.eorV6 {
		// Empty MP_UNREACH_NLRI: AFI=2, SAFI=unicast, zero routes.
		b = append(b, FlagOptional, AttrMPUnreach, 3, 0, 2, SAFIUnicast)
	}
	binary.BigEndian.PutUint16(b[attrAt:], uint16(len(b)-attrAt-2))
	for _, n := range m.NLRI {
		b = appendNLRI(b, n, opts.addPathV4)
	}
	return b
}

// Notification is a BGP NOTIFICATION message; sending one closes the
// session.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Type implements Message.
func (*Notification) Type() uint8 { return MsgNotification }

func (m *Notification) appendBody(b []byte, _ *codecOpts) []byte {
	b = append(b, m.Code, m.Subcode)
	return append(b, m.Data...)
}

// Error renders the notification as an error.
func (m *Notification) Error() string {
	return fmt.Sprintf("bgp: received notification code=%d subcode=%d", m.Code, m.Subcode)
}

// Keepalive is a BGP KEEPALIVE message.
type Keepalive struct{}

// Type implements Message.
func (*Keepalive) Type() uint8 { return MsgKeepalive }

func (*Keepalive) appendBody(b []byte, _ *codecOpts) []byte { return b }

// RouteRefresh is an RFC 2918 ROUTE-REFRESH message.
type RouteRefresh struct {
	Family AFISAFI
}

// Type implements Message.
func (*RouteRefresh) Type() uint8 { return MsgRouteRefresh }

func (m *RouteRefresh) appendBody(b []byte, _ *codecOpts) []byte {
	b = binary.BigEndian.AppendUint16(b, m.Family.AFI)
	return append(b, 0, m.Family.SAFI)
}

// appendMessage appends m, framed with the BGP header, to dst and
// returns the extended slice. dst is truncated back to its original
// length on error, so callers accumulating a batched block keep the
// valid prefix.
func appendMessage(dst []byte, m Message, opts *codecOpts) ([]byte, error) {
	start := len(dst)
	dst = append(dst, marker[:]...)
	dst = append(dst, 0, 0, m.Type())
	dst = m.appendBody(dst, opts)
	total := len(dst) - start
	if total > MaxMessageLen {
		return dst[:start], errMessageTooLong(total)
	}
	binary.BigEndian.PutUint16(dst[start+16:], uint16(total))
	return dst, nil
}

func errMessageTooLong(total int) error {
	return fmt.Errorf("bgp: message length %d exceeds maximum %d", total, MaxMessageLen)
}

// decodeBody decodes a message payload of the given type. An UPDATE is
// decoded into u (see decodeUpdate), which is then the message returned.
func decodeBody(typ uint8, body []byte, opts *codecOpts, u *Update) (Message, error) {
	switch typ {
	case MsgOpen:
		return decodeOpen(body)
	case MsgUpdate:
		if err := decodeUpdate(u, body, opts); err != nil {
			return nil, err
		}
		return u, nil
	case MsgNotification:
		if len(body) < 2 {
			return nil, notif(ErrCodeHeader, ErrSubBadLength)
		}
		return &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, notif(ErrCodeHeader, ErrSubBadLength)
		}
		return &Keepalive{}, nil
	case MsgRouteRefresh:
		if len(body) != 4 {
			return nil, notif(ErrCodeHeader, ErrSubBadLength)
		}
		return &RouteRefresh{Family: AFISAFI{binary.BigEndian.Uint16(body), body[3]}}, nil
	default:
		return nil, notif(ErrCodeHeader, ErrSubBadType, typ)
	}
}

func decodeOpen(body []byte) (*Open, error) {
	if len(body) < 10 {
		return nil, notif(ErrCodeHeader, ErrSubBadLength)
	}
	m := &Open{
		Version:  body[0],
		ASN:      binary.BigEndian.Uint16(body[1:3]),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		BGPID:    netip.AddrFrom4([4]byte(body[5:9])),
	}
	if m.Version != Version {
		return nil, notif(ErrCodeOpen, ErrSubUnsupportedVersion, 0, Version)
	}
	optLen := int(body[9])
	if len(body) < 10+optLen {
		return nil, notif(ErrCodeHeader, ErrSubBadLength)
	}
	caps, err := parseCapabilities(body[10 : 10+optLen])
	if err != nil {
		return nil, err
	}
	m.Caps = caps
	return m, nil
}

// decodeUpdate decodes an UPDATE body into m, overwriting all of it.
// Each NLRI list is decoded into the backing of m's own, truncated to
// length zero: a caller that hands in the same m every time lends that
// backing and, once it is large enough, allocates nothing for the lists.
// A list the message does not carry comes out nil, as from a zero m.
// Attrs is always a freshly allocated set.
func decodeUpdate(m *Update, body []byte, opts *codecOpts) error {
	withdrawn, nlri, mpReach, mpUnreach := m.Withdrawn[:0], m.NLRI[:0], m.MPReach[:0], m.MPUnreach[:0]
	*m = Update{}
	if len(body) < 4 {
		return notif(ErrCodeUpdate, ErrSubMalformedAttrs)
	}
	wdLen := int(binary.BigEndian.Uint16(body[0:2]))
	if len(body) < 2+wdLen+2 {
		return notif(ErrCodeUpdate, ErrSubMalformedAttrs)
	}
	withdrawn, err := appendNLRIList(withdrawn, body[2:2+wdLen], opts.addPathV4, false)
	if err != nil {
		return err
	}
	attrLen := int(binary.BigEndian.Uint16(body[2+wdLen : 4+wdLen]))
	if len(body) < 4+wdLen+attrLen {
		return notif(ErrCodeUpdate, ErrSubMalformedAttrs)
	}
	attrBytes := body[4+wdLen : 4+wdLen+attrLen]
	nlriBytes := body[4+wdLen+attrLen:]

	if attrLen > 0 {
		m.Attrs, mpReach, mpUnreach, err = parseAttrs(attrBytes, opts.as4, opts.addPathV6, mpReach, mpUnreach)
		if err != nil {
			return err
		}
	}
	if len(nlriBytes) > 0 {
		if nlri, err = appendNLRIList(nlri, nlriBytes, opts.addPathV4, false); err != nil {
			return err
		}
		if m.Attrs == nil || !m.Attrs.HasOrigin || m.Attrs.ASPath == nil || !m.Attrs.NextHop.IsValid() {
			return notif(ErrCodeUpdate, ErrSubMissingWellKnown)
		}
	}
	m.Withdrawn, m.NLRI, m.MPReach, m.MPUnreach = orNil(withdrawn), orNil(nlri), orNil(mpReach), orNil(mpUnreach)
	return nil
}

// orNil returns l, or nil when l is empty.
func orNil(l []NLRI) []NLRI {
	if len(l) == 0 {
		return nil
	}
	return l
}
