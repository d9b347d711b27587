package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
	"strings"
)

// Path attribute type codes.
const (
	AttrOrigin          = 1
	AttrASPath          = 2
	AttrNextHop         = 3
	AttrMED             = 4
	AttrLocalPref       = 5
	AttrAtomicAggregate = 6
	AttrAggregator      = 7
	AttrCommunities     = 8  // RFC 1997
	AttrMPReach         = 14 // RFC 4760
	AttrMPUnreach       = 15 // RFC 4760
	AttrAS4Path         = 17 // RFC 6793
	AttrAS4Aggregator   = 18 // RFC 6793
	AttrLargeCommunity  = 32 // RFC 8092
)

// Attribute flag bits.
const (
	FlagOptional   = 0x80
	FlagTransitive = 0x40
	FlagPartial    = 0x20
	FlagExtLen     = 0x10
)

// Origin values.
const (
	OriginIGP        uint8 = 0
	OriginEGP        uint8 = 1
	OriginIncomplete uint8 = 2
)

// AS path segment types.
const (
	ASSet      uint8 = 1
	ASSequence uint8 = 2
)

// ASPathSegment is one segment of an AS_PATH attribute.
type ASPathSegment struct {
	Type uint8 // ASSet or ASSequence
	ASNs []uint32
}

// Community is an RFC 1997 community value, conventionally written
// "ASN:value".
type Community uint32

// NewCommunity builds a community from its conventional two 16-bit halves.
func NewCommunity(asn, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// ASN returns the upper half of the community.
func (c Community) ASN() uint16 { return uint16(c >> 16) }

// Value returns the lower half of the community.
func (c Community) Value() uint16 { return uint16(c) }

// String formats the community as "ASN:value".
func (c Community) String() string { return fmt.Sprintf("%d:%d", c.ASN(), c.Value()) }

// LargeCommunity is an RFC 8092 large community.
type LargeCommunity struct {
	Global uint32
	Local1 uint32
	Local2 uint32
}

// String formats the large community as "global:local1:local2".
func (c LargeCommunity) String() string {
	return fmt.Sprintf("%d:%d:%d", c.Global, c.Local1, c.Local2)
}

// Aggregator is the AGGREGATOR attribute value.
type Aggregator struct {
	ASN  uint32
	Addr netip.Addr
}

// UnknownAttr preserves an attribute this implementation does not
// interpret, so transitive attributes propagate per RFC 4271 §5 and so the
// enforcement engine can filter announcements carrying non-standard
// attributes (paper §4.7).
type UnknownAttr struct {
	Flags uint8
	Type  uint8
	Data  []byte
}

// PathAttrs is the decoded attribute set of an UPDATE message.
//
// The zero value is an empty attribute set. HasMED, HasLocalPref
// distinguish absent attributes from zero values.
type PathAttrs struct {
	Origin           uint8
	HasOrigin        bool
	ASPath           []ASPathSegment
	NextHop          netip.Addr // invalid Addr when absent (e.g. pure withdraw)
	MED              uint32
	HasMED           bool
	LocalPref        uint32
	HasLocalPref     bool
	AtomicAggregate  bool
	Aggregator       *Aggregator
	Communities      []Community
	LargeCommunities []LargeCommunity

	// MPNextHop is the next hop carried in MP_REACH_NLRI for IPv6 routes.
	MPNextHop netip.Addr

	// Unknown holds attributes not interpreted here, in arrival order.
	Unknown []UnknownAttr
}

// Clone returns a deep copy of the attribute set, so callers can modify
// attributes (e.g. rewrite the next hop) without affecting shared state.
func (a *PathAttrs) Clone() *PathAttrs {
	c := *a
	c.ASPath = make([]ASPathSegment, len(a.ASPath))
	for i, seg := range a.ASPath {
		c.ASPath[i] = ASPathSegment{Type: seg.Type, ASNs: append([]uint32(nil), seg.ASNs...)}
	}
	c.Communities = append([]Community(nil), a.Communities...)
	c.LargeCommunities = append([]LargeCommunity(nil), a.LargeCommunities...)
	c.Unknown = make([]UnknownAttr, len(a.Unknown))
	for i, u := range a.Unknown {
		c.Unknown[i] = UnknownAttr{Flags: u.Flags, Type: u.Type, Data: append([]byte(nil), u.Data...)}
	}
	if a.Aggregator != nil {
		agg := *a.Aggregator
		c.Aggregator = &agg
	}
	return &c
}

// ASPathFlat returns the concatenated AS numbers of all AS_SEQUENCE and
// AS_SET segments, in order. Used for loop detection and path display.
func (a *PathAttrs) ASPathFlat() []uint32 {
	var out []uint32
	for _, seg := range a.ASPath {
		out = append(out, seg.ASNs...)
	}
	return out
}

// ASPathLen returns the AS path length used by the decision process: each
// AS in an AS_SEQUENCE counts 1, each AS_SET counts 1 total (RFC 4271
// §9.1.2.2).
func (a *PathAttrs) ASPathLen() int {
	n := 0
	for _, seg := range a.ASPath {
		if seg.Type == ASSet {
			n++
		} else {
			n += len(seg.ASNs)
		}
	}
	return n
}

// OriginASN returns the rightmost AS of the path (the route's originator),
// or 0 for an empty path.
func (a *PathAttrs) OriginASN() uint32 {
	for i := len(a.ASPath) - 1; i >= 0; i-- {
		seg := a.ASPath[i]
		if len(seg.ASNs) > 0 {
			return seg.ASNs[len(seg.ASNs)-1]
		}
	}
	return 0
}

// FirstASN returns the leftmost AS of the path (the neighbor that sent the
// route), or 0 for an empty path.
func (a *PathAttrs) FirstASN() uint32 {
	for _, seg := range a.ASPath {
		if len(seg.ASNs) > 0 {
			return seg.ASNs[0]
		}
	}
	return 0
}

// PathContains reports whether asn appears anywhere in the AS path. BGP
// speakers reject routes containing their own ASN (loop prevention), which
// is what AS-path poisoning exploits (paper §7.1).
func (a *PathAttrs) PathContains(asn uint32) bool {
	for _, seg := range a.ASPath {
		for _, as := range seg.ASNs {
			if as == asn {
				return true
			}
		}
	}
	return false
}

// PrependAS prepends asn count times to the AS path, creating a leading
// AS_SEQUENCE segment if needed.
func (a *PathAttrs) PrependAS(asn uint32, count int) {
	if count <= 0 {
		return
	}
	pre := make([]uint32, count)
	for i := range pre {
		pre[i] = asn
	}
	if len(a.ASPath) > 0 && a.ASPath[0].Type == ASSequence {
		a.ASPath[0].ASNs = append(pre, a.ASPath[0].ASNs...)
		return
	}
	a.ASPath = append([]ASPathSegment{{Type: ASSequence, ASNs: pre}}, a.ASPath...)
}

// HasCommunity reports whether the community set contains c.
func (a *PathAttrs) HasCommunity(c Community) bool {
	for _, have := range a.Communities {
		if have == c {
			return true
		}
	}
	return false
}

// AddCommunity appends c if not already present.
func (a *PathAttrs) AddCommunity(c Community) {
	if !a.HasCommunity(c) {
		a.Communities = append(a.Communities, c)
	}
}

// String renders the attributes compactly for logs.
func (a *PathAttrs) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "path=%v", a.ASPathFlat())
	if a.NextHop.IsValid() {
		fmt.Fprintf(&b, " nh=%s", a.NextHop)
	}
	if a.HasLocalPref {
		fmt.Fprintf(&b, " lp=%d", a.LocalPref)
	}
	if a.HasMED {
		fmt.Fprintf(&b, " med=%d", a.MED)
	}
	if len(a.Communities) > 0 {
		cs := make([]string, len(a.Communities))
		for i, c := range a.Communities {
			cs[i] = c.String()
		}
		sort.Strings(cs)
		fmt.Fprintf(&b, " comm=%s", strings.Join(cs, ","))
	}
	return b.String()
}

// appendAttrHeader appends flags, type, and a length of the proper width.
func appendAttrHeader(b []byte, flags, typ uint8, length int) []byte {
	if length > 255 {
		flags |= FlagExtLen
		return append(b, flags, typ, byte(length>>8), byte(length))
	}
	return append(b, flags, typ, byte(length))
}

// beginAttr opens an attribute whose body is encoded in place: it
// appends the header with a one-octet length still to be filled in and
// returns the header's offset for endAttr.
func beginAttr(b []byte, flags, typ uint8) ([]byte, int) {
	return append(b, flags, typ, 0), len(b)
}

// endAttr patches the length of the attribute opened at offset at. A
// body that outgrew one octet is shifted up by one to make room for the
// extended length — the rare case (an AS_PATH past 63 hops, a packed
// MP_REACH), and still cheaper than encoding every body into a scratch
// slice first to learn its size.
func endAttr(b []byte, at int) []byte {
	n := len(b) - at - 3
	if n <= 255 {
		b[at+2] = byte(n)
		return b
	}
	b = append(b, 0)
	copy(b[at+4:], b[at+3:])
	b[at] |= FlagExtLen
	b[at+2], b[at+3] = byte(n>>8), byte(n)
	return b
}

// appendASPath appends the AS_PATH body in 4-octet (as4=true) or
// 2-octet form. In 2-octet form, 4-octet ASNs are replaced by AS_TRANS
// (RFC 6793).
func appendASPath(b []byte, segs []ASPathSegment, as4 bool) []byte {
	for _, seg := range segs {
		asns := seg.ASNs
		for len(asns) > 0 {
			chunk := asns
			if len(chunk) > 255 {
				chunk = chunk[:255]
			}
			asns = asns[len(chunk):]
			b = append(b, seg.Type, byte(len(chunk)))
			for _, as := range chunk {
				if as4 {
					b = binary.BigEndian.AppendUint32(b, as)
				} else {
					if as > 0xffff {
						as = ASTrans
					}
					b = binary.BigEndian.AppendUint16(b, uint16(as))
				}
			}
		}
		if len(seg.ASNs) == 0 {
			b = append(b, seg.Type, 0)
		}
	}
	return b
}

// parseASPath decodes an AS_PATH or AS4_PATH attribute body. The
// segments are carved from segs and their ASNs from asns when those
// backings are large enough, and from one exactly-sized allocation each
// otherwise. Every segment's ASNs are capped at their length, so a
// consumer that appends to one copies out instead of overwriting the
// next segment. A body without segments yields segs[:0].
func parseASPath(data []byte, as4 bool, segs []ASPathSegment, asns []uint32) ([]ASPathSegment, error) {
	width := 2
	if as4 {
		width = 4
	}
	nseg, total := 0, 0
	for rest := data; len(rest) > 0; nseg++ {
		if len(rest) < 2 {
			return nil, notif(ErrCodeUpdate, ErrSubMalformedASPath)
		}
		typ, count := rest[0], int(rest[1])
		if typ != ASSet && typ != ASSequence {
			return nil, notif(ErrCodeUpdate, ErrSubMalformedASPath)
		}
		rest = rest[2:]
		if len(rest) < count*width {
			return nil, notif(ErrCodeUpdate, ErrSubMalformedASPath)
		}
		rest = rest[count*width:]
		total += count
	}
	if nseg > len(segs) {
		segs = make([]ASPathSegment, nseg)
	}
	if total > len(asns) {
		asns = make([]uint32, total)
	}
	segs, n := segs[:0:nseg], 0
	for len(data) > 0 {
		typ, count := data[0], int(data[1])
		data = data[2:]
		seg := ASPathSegment{Type: typ, ASNs: asns[n : n+count : n+count]}
		for i := range seg.ASNs {
			if as4 {
				seg.ASNs[i] = binary.BigEndian.Uint32(data[i*4:])
			} else {
				seg.ASNs[i] = uint32(binary.BigEndian.Uint16(data[i*2:]))
			}
		}
		data = data[count*width:]
		n += count
		segs = append(segs, seg)
	}
	return segs, nil
}

// appendAttrs appends the encoded attribute set to b in place (the hot
// path encodes straight into a pooled frame buffer). as4 selects
// 4-octet AS_PATH encoding (negotiated via capability). mpNLRI, when
// non-empty, is encoded into an MP_REACH_NLRI attribute for IPv6 along
// with MPNextHop; addPath controls path-ID encoding inside MP_REACH.
func appendAttrs(b []byte, a *PathAttrs, as4 bool, mpNLRI []NLRI, mpWithdraw []NLRI, addPath bool) []byte {
	if a == nil {
		a = &PathAttrs{}
	}
	if a.HasOrigin {
		b = appendAttrHeader(b, FlagTransitive, AttrOrigin, 1)
		b = append(b, a.Origin)
	}
	if a.ASPath != nil || a.HasOrigin {
		var at int
		b, at = beginAttr(b, FlagTransitive, AttrASPath)
		b = endAttr(appendASPath(b, a.ASPath, as4), at)
		if !as4 && pathHas4Octet(a.ASPath) {
			b, at = beginAttr(b, FlagOptional|FlagTransitive, AttrAS4Path)
			b = endAttr(appendASPath(b, a.ASPath, true), at)
		}
	}
	if a.NextHop.IsValid() && a.NextHop.Is4() {
		b = appendAttrHeader(b, FlagTransitive, AttrNextHop, 4)
		nh := a.NextHop.As4()
		b = append(b, nh[:]...)
	}
	if a.HasMED {
		b = appendAttrHeader(b, FlagOptional, AttrMED, 4)
		b = binary.BigEndian.AppendUint32(b, a.MED)
	}
	if a.HasLocalPref {
		b = appendAttrHeader(b, FlagTransitive, AttrLocalPref, 4)
		b = binary.BigEndian.AppendUint32(b, a.LocalPref)
	}
	if a.AtomicAggregate {
		b = appendAttrHeader(b, FlagTransitive, AttrAtomicAggregate, 0)
	}
	if a.Aggregator != nil {
		addr := a.Aggregator.Addr.As4()
		if as4 {
			b = appendAttrHeader(b, FlagOptional|FlagTransitive, AttrAggregator, 8)
			b = binary.BigEndian.AppendUint32(b, a.Aggregator.ASN)
		} else {
			b = appendAttrHeader(b, FlagOptional|FlagTransitive, AttrAggregator, 6)
			asn := a.Aggregator.ASN
			if asn > 0xffff {
				asn = ASTrans
			}
			b = binary.BigEndian.AppendUint16(b, uint16(asn))
		}
		b = append(b, addr[:]...)
	}
	if len(a.Communities) > 0 {
		b = appendAttrHeader(b, FlagOptional|FlagTransitive, AttrCommunities, 4*len(a.Communities))
		for _, c := range a.Communities {
			b = binary.BigEndian.AppendUint32(b, uint32(c))
		}
	}
	if len(a.LargeCommunities) > 0 {
		b = appendAttrHeader(b, FlagOptional|FlagTransitive, AttrLargeCommunity, 12*len(a.LargeCommunities))
		for _, c := range a.LargeCommunities {
			b = binary.BigEndian.AppendUint32(b, c.Global)
			b = binary.BigEndian.AppendUint32(b, c.Local1)
			b = binary.BigEndian.AppendUint32(b, c.Local2)
		}
	}
	if len(mpNLRI) > 0 {
		var at int
		b, at = beginAttr(b, FlagOptional, AttrMPReach)
		b = endAttr(appendMPReach(b, a.MPNextHop, mpNLRI, addPath), at)
	}
	if len(mpWithdraw) > 0 {
		var at int
		b, at = beginAttr(b, FlagOptional, AttrMPUnreach)
		b = endAttr(appendMPUnreach(b, mpWithdraw, addPath), at)
	}
	for _, u := range a.Unknown {
		b = appendAttrHeader(b, u.Flags&^FlagExtLen, u.Type, len(u.Data))
		b = append(b, u.Data...)
	}
	return b
}

func pathHas4Octet(segs []ASPathSegment) bool {
	for _, seg := range segs {
		for _, as := range seg.ASNs {
			if as > 0xffff {
				return true
			}
		}
	}
	return false
}

func appendMPReach(b []byte, nextHop netip.Addr, nlri []NLRI, addPath bool) []byte {
	b = binary.BigEndian.AppendUint16(b, AFIIPv6)
	b = append(b, SAFIUnicast)
	if nextHop.IsValid() && nextHop.Is6() {
		nh := nextHop.As16()
		b = append(b, 16)
		b = append(b, nh[:]...)
	} else {
		b = append(b, 0)
	}
	b = append(b, 0) // reserved
	for _, n := range nlri {
		b = appendNLRI(b, n, addPath)
	}
	return b
}

func appendMPUnreach(b []byte, nlri []NLRI, addPath bool) []byte {
	b = binary.BigEndian.AppendUint16(b, AFIIPv6)
	b = append(b, SAFIUnicast)
	for _, n := range nlri {
		b = appendNLRI(b, n, addPath)
	}
	return b
}

// parseAttrs decodes the path attribute block of an UPDATE. as4 selects
// 4-octet AS_PATH decoding; addPath controls MP NLRI path-ID decoding.
// It returns a freshly allocated attribute set, and the IPv6 NLRI and
// withdrawals carried in MP_REACH/MP_UNREACH appended to mpReach and
// mpUnreach.
func parseAttrs(data []byte, as4, addPath bool, mpReach, mpUnreach []NLRI) (*PathAttrs, []NLRI, []NLRI, error) {
	// The set and the backings of a one-segment AS_PATH of up to 8 ASNs
	// and of up to 4 communities come from one allocation of exactly
	// 256 B, a size class of its own; the two sizes are what fills that
	// class, not a measured distribution of real paths and community
	// lists. A longer path or more communities spill into one more
	// allocation each. Slices carved from the box are capped at their
	// length, so appending to one copies out of the box.
	box := &struct {
		attrs PathAttrs
		seg   [1]ASPathSegment
		asns  [8]uint32
		comms [4]Community
	}{}
	a := &box.attrs
	var as4Path []ASPathSegment
	seen := make(map[uint8]bool)
	for len(data) > 0 {
		if len(data) < 3 {
			return nil, nil, nil, notif(ErrCodeUpdate, ErrSubMalformedAttrs)
		}
		flags, typ := data[0], data[1]
		var alen, off int
		if flags&FlagExtLen != 0 {
			if len(data) < 4 {
				return nil, nil, nil, notif(ErrCodeUpdate, ErrSubMalformedAttrs)
			}
			alen = int(binary.BigEndian.Uint16(data[2:4]))
			off = 4
		} else {
			alen = int(data[2])
			off = 3
		}
		if len(data) < off+alen {
			return nil, nil, nil, notif(ErrCodeUpdate, ErrSubAttrLength)
		}
		body := data[off : off+alen]
		data = data[off+alen:]
		if seen[typ] {
			return nil, nil, nil, notif(ErrCodeUpdate, ErrSubMalformedAttrs)
		}
		seen[typ] = true

		switch typ {
		case AttrOrigin:
			if alen != 1 {
				return nil, nil, nil, notif(ErrCodeUpdate, ErrSubAttrLength)
			}
			if body[0] > OriginIncomplete {
				return nil, nil, nil, notif(ErrCodeUpdate, ErrSubInvalidOrigin)
			}
			a.Origin, a.HasOrigin = body[0], true
		case AttrASPath:
			segs, err := parseASPath(body, as4, box.seg[:], box.asns[:])
			if err != nil {
				return nil, nil, nil, err
			}
			a.ASPath = segs // never nil: an empty AS_PATH is present, not absent
		case AttrAS4Path:
			segs, err := parseASPath(body, true, nil, nil)
			if err != nil {
				return nil, nil, nil, err
			}
			as4Path = segs
		case AttrNextHop:
			if alen != 4 {
				return nil, nil, nil, notif(ErrCodeUpdate, ErrSubInvalidNextHop)
			}
			a.NextHop = netip.AddrFrom4([4]byte(body))
		case AttrMED:
			if alen != 4 {
				return nil, nil, nil, notif(ErrCodeUpdate, ErrSubAttrLength)
			}
			a.MED, a.HasMED = binary.BigEndian.Uint32(body), true
		case AttrLocalPref:
			if alen != 4 {
				return nil, nil, nil, notif(ErrCodeUpdate, ErrSubAttrLength)
			}
			a.LocalPref, a.HasLocalPref = binary.BigEndian.Uint32(body), true
		case AttrAtomicAggregate:
			a.AtomicAggregate = true
		case AttrAggregator:
			agg := &Aggregator{}
			switch alen {
			case 8:
				agg.ASN = binary.BigEndian.Uint32(body)
				agg.Addr = netip.AddrFrom4([4]byte(body[4:8]))
			case 6:
				agg.ASN = uint32(binary.BigEndian.Uint16(body))
				agg.Addr = netip.AddrFrom4([4]byte(body[2:6]))
			default:
				return nil, nil, nil, notif(ErrCodeUpdate, ErrSubAttrLength)
			}
			a.Aggregator = agg
		case AttrCommunities:
			if alen%4 != 0 {
				return nil, nil, nil, notif(ErrCodeUpdate, ErrSubAttrLength)
			}
			if n := alen / 4; n > 0 {
				comms := box.comms[:]
				if n > len(comms) {
					comms = make([]Community, n)
				}
				a.Communities = comms[:n:n]
				for i := range a.Communities {
					a.Communities[i] = Community(binary.BigEndian.Uint32(body[4*i:]))
				}
			}
		case AttrLargeCommunity:
			if alen%12 != 0 {
				return nil, nil, nil, notif(ErrCodeUpdate, ErrSubAttrLength)
			}
			for i := 0; i < alen; i += 12 {
				a.LargeCommunities = append(a.LargeCommunities, LargeCommunity{
					Global: binary.BigEndian.Uint32(body[i:]),
					Local1: binary.BigEndian.Uint32(body[i+4:]),
					Local2: binary.BigEndian.Uint32(body[i+8:]),
				})
			}
		case AttrMPReach:
			nh, nlri, err := parseMPReach(body, addPath, mpReach)
			if err != nil {
				return nil, nil, nil, err
			}
			a.MPNextHop = nh
			mpReach = nlri
		case AttrMPUnreach:
			nlri, err := parseMPUnreach(body, addPath, mpUnreach)
			if err != nil {
				return nil, nil, nil, err
			}
			mpUnreach = nlri
		default:
			if flags&FlagOptional == 0 {
				// Unrecognized well-known attribute.
				return nil, nil, nil, notif(ErrCodeUpdate, ErrSubMalformedAttrs)
			}
			a.Unknown = append(a.Unknown, UnknownAttr{
				Flags: flags, Type: typ, Data: append([]byte(nil), body...),
			})
		}
	}
	// RFC 6793: merge AS4_PATH into AS_PATH when the session is 2-octet.
	if !as4 && as4Path != nil {
		a.ASPath = mergeAS4Path(a.ASPath, as4Path)
	}
	return a, mpReach, mpUnreach, nil
}

// mergeAS4Path reconstructs the true path from a 2-octet AS_PATH and an
// AS4_PATH per RFC 6793 §4.2.3: if AS_PATH is at least as long as
// AS4_PATH, the leading (len(ASPath)-len(AS4Path)) ASes of AS_PATH are
// prepended to AS4_PATH.
func mergeAS4Path(asPath, as4Path []ASPathSegment) []ASPathSegment {
	count := func(segs []ASPathSegment) int {
		n := 0
		for _, s := range segs {
			n += len(s.ASNs)
		}
		return n
	}
	nOld, nNew := count(asPath), count(as4Path)
	if nNew > nOld {
		return asPath // AS4_PATH inconsistent: ignore it
	}
	lead := nOld - nNew
	merged := make([]ASPathSegment, 0, len(as4Path)+1)
	if lead > 0 {
		var leadASNs []uint32
	outer:
		for _, seg := range asPath {
			for _, as := range seg.ASNs {
				leadASNs = append(leadASNs, as)
				if len(leadASNs) == lead {
					break outer
				}
			}
		}
		merged = append(merged, ASPathSegment{Type: ASSequence, ASNs: leadASNs})
	}
	for _, seg := range as4Path {
		merged = append(merged, ASPathSegment{Type: seg.Type, ASNs: append([]uint32(nil), seg.ASNs...)})
	}
	return merged
}

// parseMPReach decodes an MP_REACH_NLRI body, appending its routes to dst.
func parseMPReach(body []byte, addPath bool, dst []NLRI) (netip.Addr, []NLRI, error) {
	if len(body) < 5 {
		return netip.Addr{}, nil, notif(ErrCodeUpdate, ErrSubMalformedAttrs)
	}
	afi := binary.BigEndian.Uint16(body)
	safi := body[2]
	if afi != AFIIPv6 || safi != SAFIUnicast {
		return netip.Addr{}, nil, fmt.Errorf("bgp: unsupported AFI/SAFI %d/%d", afi, safi)
	}
	nhLen := int(body[3])
	if len(body) < 4+nhLen+1 {
		return netip.Addr{}, nil, notif(ErrCodeUpdate, ErrSubMalformedAttrs)
	}
	var nh netip.Addr
	if nhLen >= 16 {
		nh = netip.AddrFrom16([16]byte(body[4 : 4+16]))
	}
	rest := body[4+nhLen+1:] // skip reserved byte
	nlri, err := appendNLRIList(dst, rest, addPath, true)
	return nh, nlri, err
}

// parseMPUnreach decodes an MP_UNREACH_NLRI body, appending its routes
// to dst.
func parseMPUnreach(body []byte, addPath bool, dst []NLRI) ([]NLRI, error) {
	if len(body) < 3 {
		return nil, notif(ErrCodeUpdate, ErrSubMalformedAttrs)
	}
	afi := binary.BigEndian.Uint16(body)
	safi := body[2]
	if afi != AFIIPv6 || safi != SAFIUnicast {
		return nil, fmt.Errorf("bgp: unsupported AFI/SAFI %d/%d", afi, safi)
	}
	return appendNLRIList(dst, body[3:], addPath, true)
}
