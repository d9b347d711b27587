package bgp

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

// readMessage reads and decodes one message from r with a header read
// and a body read — the session's reader before it got a frame buffer,
// kept as the reference frameReader is checked against
// (FuzzFrameReader) and as the plain one-shot decoder of these tests.
func readMessage(r io.Reader, opts *codecOpts) (Message, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if [16]byte(hdr[:16]) != marker {
		return nil, notif(ErrCodeHeader, 1)
	}
	length := int(binary.BigEndian.Uint16(hdr[16:18]))
	typ := hdr[18]
	if length < HeaderLen || length > MaxMessageLen {
		return nil, notif(ErrCodeHeader, ErrSubBadLength)
	}
	body := make([]byte, length-HeaderLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return decodeBody(typ, body, opts, new(Update))
}

// keep copies an Update that a session or frameReader lends into one
// the caller owns: the NLRI lists are copied, and the attribute set is
// the callee's already.
func keep(u *Update) *Update {
	c := *u
	c.Withdrawn, c.NLRI = slices.Clone(u.Withdrawn), slices.Clone(u.NLRI)
	c.MPReach, c.MPUnreach = slices.Clone(u.MPReach), slices.Clone(u.MPUnreach)
	return &c
}

// roundTrip marshals and re-decodes a message with the given options.
func roundTrip(t *testing.T, m Message, opts *codecOpts) Message {
	t.Helper()
	b, err := marshalMessage(m, opts)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := readMessage(bytes.NewReader(b), opts)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestKeepaliveRoundTrip(t *testing.T) {
	got := roundTrip(t, &Keepalive{}, &codecOpts{})
	if _, ok := got.(*Keepalive); !ok {
		t.Fatalf("got %T", got)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	m := &Notification{Code: ErrCodeCease, Subcode: CeaseAdminShutdown, Data: []byte{1, 2}}
	got := roundTrip(t, m, &codecOpts{}).(*Notification)
	if got.Code != m.Code || got.Subcode != m.Subcode || !bytes.Equal(got.Data, m.Data) {
		t.Errorf("got %+v want %+v", got, m)
	}
}

func TestRouteRefreshRoundTrip(t *testing.T) {
	m := &RouteRefresh{Family: IPv6Unicast}
	got := roundTrip(t, m, &codecOpts{}).(*RouteRefresh)
	if got.Family != IPv6Unicast {
		t.Errorf("family %+v", got.Family)
	}
}

func TestOpenRoundTripWithCapabilities(t *testing.T) {
	m := &Open{
		Version:  Version,
		ASN:      ASTrans,
		HoldTime: 90,
		BGPID:    ip("10.0.0.1"),
		Caps: &Capabilities{
			AS4:          4200000001,
			MP:           []AFISAFI{IPv4Unicast, IPv6Unicast},
			RouteRefresh: true,
			AddPath: map[AFISAFI]uint8{
				IPv4Unicast: AddPathSendReceive,
				IPv6Unicast: AddPathSend,
			},
		},
	}
	got := roundTrip(t, m, &codecOpts{}).(*Open)
	if got.ASN != ASTrans || got.HoldTime != 90 || got.BGPID != m.BGPID {
		t.Errorf("fixed fields: %+v", got)
	}
	if got.Caps.AS4 != 4200000001 {
		t.Errorf("AS4 = %d", got.Caps.AS4)
	}
	if !slices.Contains(got.Caps.MP, IPv4Unicast) || !slices.Contains(got.Caps.MP, IPv6Unicast) {
		t.Error("MP families lost")
	}
	if !got.Caps.RouteRefresh {
		t.Error("route refresh lost")
	}
	if got.Caps.AddPath[IPv4Unicast] != AddPathSendReceive || got.Caps.AddPath[IPv6Unicast] != AddPathSend {
		t.Errorf("addpath = %v", got.Caps.AddPath)
	}
}

func TestOpenVersionRejected(t *testing.T) {
	m := &Open{Version: 3, ASN: 1, HoldTime: 90, BGPID: ip("1.1.1.1"), Caps: &Capabilities{}}
	b, err := marshalMessage(m, &codecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = readMessage(bytes.NewReader(b), &codecOpts{})
	ne, ok := err.(*NotificationError)
	if !ok || ne.Code != ErrCodeOpen || ne.Subcode != ErrSubUnsupportedVersion {
		t.Errorf("err = %v", err)
	}
}

func baseAttrs() *PathAttrs {
	return &PathAttrs{
		Origin:    OriginIGP,
		HasOrigin: true,
		ASPath:    []ASPathSegment{{Type: ASSequence, ASNs: []uint32{65001, 65002}}},
		NextHop:   ip("192.0.2.1"),
	}
}

func TestUpdateRoundTripBasic(t *testing.T) {
	m := &Update{
		Attrs: baseAttrs(),
		NLRI:  []NLRI{{Prefix: pfx("10.1.0.0/24")}, {Prefix: pfx("10.2.0.0/23")}},
	}
	got := roundTrip(t, m, &codecOpts{as4: true}).(*Update)
	if !reflect.DeepEqual(got.NLRI, m.NLRI) {
		t.Errorf("NLRI %v want %v", got.NLRI, m.NLRI)
	}
	if !reflect.DeepEqual(got.Attrs.ASPath, m.Attrs.ASPath) {
		t.Errorf("ASPath %v", got.Attrs.ASPath)
	}
	if got.Attrs.NextHop != m.Attrs.NextHop {
		t.Errorf("NextHop %v", got.Attrs.NextHop)
	}
}

func TestUpdateRoundTripAllAttrs(t *testing.T) {
	a := baseAttrs()
	a.MED, a.HasMED = 50, true
	a.LocalPref, a.HasLocalPref = 200, true
	a.AtomicAggregate = true
	a.Aggregator = &Aggregator{ASN: 65001, Addr: ip("10.0.0.1")}
	a.Communities = []Community{NewCommunity(47065, 1), NewCommunity(65535, 666)}
	a.LargeCommunities = []LargeCommunity{{Global: 4200000000, Local1: 1, Local2: 2}}
	a.Unknown = []UnknownAttr{{Flags: FlagOptional | FlagTransitive, Type: 99, Data: []byte{0xde, 0xad}}}
	m := &Update{Attrs: a, NLRI: []NLRI{{Prefix: pfx("10.0.0.0/24")}}}

	got := roundTrip(t, m, &codecOpts{as4: true}).(*Update)
	g := got.Attrs
	if !g.HasMED || g.MED != 50 || !g.HasLocalPref || g.LocalPref != 200 {
		t.Errorf("MED/LP: %+v", g)
	}
	if !g.AtomicAggregate || g.Aggregator == nil || *g.Aggregator != *a.Aggregator {
		t.Errorf("aggregate attrs: %+v", g)
	}
	if !reflect.DeepEqual(g.Communities, a.Communities) {
		t.Errorf("communities %v", g.Communities)
	}
	if !reflect.DeepEqual(g.LargeCommunities, a.LargeCommunities) {
		t.Errorf("large communities %v", g.LargeCommunities)
	}
	if len(g.Unknown) != 1 || g.Unknown[0].Type != 99 || !bytes.Equal(g.Unknown[0].Data, []byte{0xde, 0xad}) {
		t.Errorf("unknown attrs %v", g.Unknown)
	}
	if g.Unknown[0].Flags&FlagTransitive == 0 {
		t.Error("transitive flag lost")
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	m := &Update{Withdrawn: []NLRI{{Prefix: pfx("10.1.0.0/24")}}}
	got := roundTrip(t, m, &codecOpts{}).(*Update)
	if len(got.Withdrawn) != 1 || got.Withdrawn[0].Prefix != pfx("10.1.0.0/24") {
		t.Errorf("withdrawn %v", got.Withdrawn)
	}
	if got.Attrs != nil || got.NLRI != nil {
		t.Errorf("unexpected attrs/NLRI: %+v", got)
	}
}

func TestUpdateAddPathIDs(t *testing.T) {
	opts := &codecOpts{as4: true, addPathV4: true}
	m := &Update{
		Attrs: baseAttrs(),
		NLRI:  []NLRI{{Prefix: pfx("192.168.0.0/24"), ID: 1}, {Prefix: pfx("192.168.0.0/24"), ID: 2}},
	}
	got := roundTrip(t, m, opts).(*Update)
	if !reflect.DeepEqual(got.NLRI, m.NLRI) {
		t.Errorf("ADD-PATH NLRI %v want %v", got.NLRI, m.NLRI)
	}
	// Same update without ADD-PATH loses the distinction (IDs zero) —
	// this is the visibility limitation ADD-PATH exists to fix (§2.2.2).
	noAP := roundTrip(t, &Update{Attrs: baseAttrs(), NLRI: []NLRI{{Prefix: pfx("192.168.0.0/24")}}}, &codecOpts{as4: true}).(*Update)
	if noAP.NLRI[0].ID != 0 {
		t.Error("path ID should be zero without ADD-PATH")
	}
}

func TestUpdateIPv6MPReach(t *testing.T) {
	a := baseAttrs()
	a.NextHop = netip.Addr{} // v6-only update
	a.MPNextHop = ip("2001:db8::1")
	m := &Update{
		Attrs:   a,
		MPReach: []NLRI{{Prefix: pfx("2001:db8:1000::/36")}},
	}
	got := roundTrip(t, m, &codecOpts{as4: true}).(*Update)
	if got.Attrs.MPNextHop != ip("2001:db8::1") {
		t.Errorf("MP next hop %v", got.Attrs.MPNextHop)
	}
	if len(got.MPReach) != 1 || got.MPReach[0].Prefix != pfx("2001:db8:1000::/36") {
		t.Errorf("MP NLRI %v", got.MPReach)
	}
}

func TestUpdateIPv6MPUnreach(t *testing.T) {
	m := &Update{
		Attrs:     &PathAttrs{},
		MPUnreach: []NLRI{{Prefix: pfx("2001:db8::/32")}},
	}
	got := roundTrip(t, m, &codecOpts{}).(*Update)
	if len(got.MPUnreach) != 1 || got.MPUnreach[0].Prefix != pfx("2001:db8::/32") {
		t.Errorf("MP withdraw %v", got.MPUnreach)
	}
}

func TestUpdateMissingWellKnown(t *testing.T) {
	// NLRI present but no next hop: must be rejected.
	a := &PathAttrs{Origin: OriginIGP, HasOrigin: true, ASPath: []ASPathSegment{}}
	m := &Update{Attrs: a, NLRI: []NLRI{{Prefix: pfx("10.0.0.0/24")}}}
	b, err := marshalMessage(m, &codecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = readMessage(bytes.NewReader(b), &codecOpts{})
	ne, ok := err.(*NotificationError)
	if !ok || ne.Code != ErrCodeUpdate || ne.Subcode != ErrSubMissingWellKnown {
		t.Errorf("err = %v", err)
	}
}

func TestTwoOctetASPathUsesASTrans(t *testing.T) {
	a := baseAttrs()
	a.ASPath = []ASPathSegment{{Type: ASSequence, ASNs: []uint32{4200000001, 65002}}}
	m := &Update{Attrs: a, NLRI: []NLRI{{Prefix: pfx("10.0.0.0/24")}}}

	// Encode for a 2-octet peer: AS_PATH gets AS_TRANS, AS4_PATH carries
	// the real path, and decoding merges them back (RFC 6793).
	got := roundTrip(t, m, &codecOpts{as4: false}).(*Update)
	flat := got.Attrs.ASPathFlat()
	if len(flat) != 2 || flat[0] != 4200000001 || flat[1] != 65002 {
		t.Errorf("merged path = %v, want [4200000001 65002]", flat)
	}
}

func TestASPathLongerThan255(t *testing.T) {
	asns := make([]uint32, 300)
	for i := range asns {
		asns[i] = uint32(65000 + i)
	}
	a := baseAttrs()
	a.ASPath = []ASPathSegment{{Type: ASSequence, ASNs: asns}}
	m := &Update{Attrs: a, NLRI: []NLRI{{Prefix: pfx("10.0.0.0/24")}}}
	got := roundTrip(t, m, &codecOpts{as4: true}).(*Update)
	if got.Attrs.ASPathLen() != 300 {
		t.Errorf("path length %d, want 300", got.Attrs.ASPathLen())
	}
	if !reflect.DeepEqual(got.Attrs.ASPathFlat(), asns) {
		t.Error("long path contents mangled")
	}
}

func TestASSetCountsOnce(t *testing.T) {
	a := &PathAttrs{ASPath: []ASPathSegment{
		{Type: ASSequence, ASNs: []uint32{1, 2}},
		{Type: ASSet, ASNs: []uint32{3, 4, 5}},
	}}
	if a.ASPathLen() != 3 {
		t.Errorf("ASPathLen = %d, want 3 (set counts once)", a.ASPathLen())
	}
	if a.OriginASN() != 5 {
		t.Errorf("OriginASN = %d", a.OriginASN())
	}
	if a.FirstASN() != 1 {
		t.Errorf("FirstASN = %d", a.FirstASN())
	}
}

func TestPathAttrsHelpers(t *testing.T) {
	a := baseAttrs()
	if !a.PathContains(65001) || a.PathContains(65999) {
		t.Error("PathContains")
	}
	a.PrependAS(47065, 3)
	flat := a.ASPathFlat()
	if len(flat) != 5 || flat[0] != 47065 || flat[2] != 47065 || flat[3] != 65001 {
		t.Errorf("after prepend: %v", flat)
	}
	a.AddCommunity(NewCommunity(47065, 100))
	a.AddCommunity(NewCommunity(47065, 100)) // duplicate
	if len(a.Communities) != 1 {
		t.Errorf("communities: %v", a.Communities)
	}
	c := NewCommunity(47065, 100)
	if c.ASN() != 47065 || c.Value() != 100 || c.String() != "47065:100" {
		t.Errorf("community accessors: %v", c)
	}
}

func TestPrependToEmptyAndSetLeading(t *testing.T) {
	var a PathAttrs
	a.PrependAS(65001, 2)
	if got := a.ASPathFlat(); len(got) != 2 {
		t.Errorf("prepend to empty: %v", got)
	}
	b := PathAttrs{ASPath: []ASPathSegment{{Type: ASSet, ASNs: []uint32{9}}}}
	b.PrependAS(65001, 1)
	if b.ASPath[0].Type != ASSequence || len(b.ASPath) != 2 {
		t.Errorf("prepend before set: %+v", b.ASPath)
	}
}

func TestAttrsClone(t *testing.T) {
	a := baseAttrs()
	a.Communities = []Community{1}
	a.Unknown = []UnknownAttr{{Type: 50, Data: []byte{1}}}
	c := a.Clone()
	c.ASPath[0].ASNs[0] = 99
	c.Communities[0] = 2
	c.Unknown[0].Data[0] = 9
	c.NextHop = ip("127.65.0.1")
	if a.ASPath[0].ASNs[0] != 65001 || a.Communities[0] != 1 || a.Unknown[0].Data[0] != 1 {
		t.Error("Clone shares state with original")
	}
	if a.NextHop != ip("192.0.2.1") {
		t.Error("Clone shares NextHop")
	}
}

// TestParseAttrsCarvesCappedBackings round-trips attribute sets through
// parseAttrs across the sizes that fill and spill its inline backings
// (8 ASNs, 4 communities), then appends to every slice the decoder
// carved: each append must copy out, leaving the other fields — the
// next segment, and what another appender wrote — untouched.
func TestParseAttrsCarvesCappedBackings(t *testing.T) {
	seq := func(n int) []uint32 {
		asns := make([]uint32, n)
		for i := range asns {
			asns[i] = uint32(64512 + i)
		}
		return asns
	}
	comms := func(n int) []Community {
		var cs []Community
		for i := 0; i < n; i++ {
			cs = append(cs, NewCommunity(65000, uint16(i)))
		}
		return cs
	}
	path := func(asns []uint32) []ASPathSegment { return []ASPathSegment{{Type: ASSequence, ASNs: asns}} }
	long := seq(300)
	cases := []struct {
		name  string
		path  []ASPathSegment
		comms []Community
		want  []ASPathSegment // the decoded path when the encoder splits it
	}{
		{name: "empty path", path: []ASPathSegment{}},
		{name: "1 ASN", path: path(seq(1)), comms: comms(1)},
		{name: "8 ASNs", path: path(seq(8)), comms: comms(4)},
		{name: "9 ASNs", path: path(seq(9)), comms: comms(5)},
		{name: "300 ASNs", path: path(long), comms: comms(64),
			want: []ASPathSegment{{Type: ASSequence, ASNs: long[:255]}, {Type: ASSequence, ASNs: long[255:]}}},
		{name: "set and sequence", path: []ASPathSegment{
			{Type: ASSet, ASNs: []uint32{64600, 64601}},
			{Type: ASSequence, ASNs: []uint32{64700, 64701, 64702}},
		}, comms: comms(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := baseAttrs()
			in.ASPath, in.Communities = tc.path, tc.comms
			decode := func() *PathAttrs {
				t.Helper()
				got, _, _, err := parseAttrs(marshalAttrs(in, true, nil, nil, false), true, false, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			want := *in
			if tc.want != nil {
				want.ASPath = tc.want
			}
			got := decode()
			if !reflect.DeepEqual(got, &want) {
				t.Fatalf("decoded %+v\nwant    %+v", got, &want)
			}

			// Two appenders of one slice must not see each other's
			// element, and neither may overwrite the set.
			for i := range got.ASPath {
				a := append(got.ASPath[i].ASNs, 1)
				b := append(got.ASPath[i].ASNs, 2)
				if a[len(a)-1] != 1 || b[len(b)-1] != 2 {
					t.Errorf("appends to segment %d share a backing", i)
				}
			}
			sa := append(got.ASPath, ASPathSegment{Type: ASSet})
			sb := append(got.ASPath, ASPathSegment{Type: ASSequence})
			if sa[len(sa)-1].Type != ASSet || sb[len(sb)-1].Type != ASSequence {
				t.Error("appends to the segment list share a backing")
			}
			ca := append(got.Communities, 1)
			cb := append(got.Communities, 2)
			if ca[len(ca)-1] != 1 || cb[len(cb)-1] != 2 {
				t.Error("appends to the communities share a backing")
			}
			if !reflect.DeepEqual(got, &want) {
				t.Fatalf("appending changed the set: %+v\nwant %+v", got, &want)
			}

			// Shallow copies of one stored set, as the export path makes,
			// each adding their own community.
			x, y := *got, *got
			x.AddCommunity(NewCommunity(1, 1))
			y.AddCommunity(NewCommunity(2, 2))
			if x.Communities[len(x.Communities)-1] != NewCommunity(1, 1) {
				t.Error("AddCommunity on one copy overwrote the other's")
			}
			if !reflect.DeepEqual(got, &want) {
				t.Fatalf("AddCommunity on a copy changed the set: %+v", got)
			}

			got.PrependAS(65535, 2)
			if flat := got.ASPathFlat(); len(flat) != len(want.ASPathFlat())+2 || flat[0] != 65535 || flat[1] != 65535 {
				t.Errorf("after PrependAS: %v", flat)
			}
			got.AddCommunity(NewCommunity(3, 3))
			if n := len(want.Communities); len(got.Communities) != n+1 || !slices.Equal(got.Communities[:n], want.Communities) {
				t.Errorf("after AddCommunity: %v", got.Communities)
			}
			got.ASPath, got.Communities = want.ASPath, want.Communities
			if !reflect.DeepEqual(got, &want) {
				t.Errorf("PrependAS/AddCommunity changed another field: %+v", got)
			}
			if fresh := decode(); !reflect.DeepEqual(fresh, &want) {
				t.Errorf("a second decode differs: %+v", fresh)
			}
		})
	}
}

func TestNLRIPropertyRoundTrip(t *testing.T) {
	fn := func(addr [4]byte, bits uint8, id uint32, addPath bool) bool {
		b := int(bits % 33)
		p := netip.PrefixFrom(netip.AddrFrom4(addr), b).Masked()
		n := NLRI{Prefix: p}
		if addPath {
			n.ID = PathID(id)
		}
		wire := appendNLRI(nil, n, addPath)
		got, used, err := decodeNLRI(wire, addPath, false)
		return err == nil && used == len(wire) && got == n
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNLRIv6PropertyRoundTrip(t *testing.T) {
	fn := func(addr [16]byte, bits uint8, id uint32) bool {
		b := int(bits % 129)
		p := netip.PrefixFrom(netip.AddrFrom16(addr), b).Masked()
		n := NLRI{Prefix: p, ID: PathID(id)}
		wire := appendNLRI(nil, n, true)
		got, used, err := decodeNLRI(wire, true, true)
		return err == nil && used == len(wire) && got == n
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUpdatePropertyRoundTrip(t *testing.T) {
	fn := func(asns []uint32, med uint32, hasMED bool, comms []uint32, nh [4]byte, prefixes [][4]byte) bool {
		if len(asns) > 100 {
			asns = asns[:100]
		}
		if len(prefixes) > 50 {
			prefixes = prefixes[:50]
		}
		if len(prefixes) == 0 {
			return true
		}
		a := &PathAttrs{
			Origin: OriginIncomplete, HasOrigin: true,
			ASPath:  []ASPathSegment{{Type: ASSequence, ASNs: asns}},
			NextHop: netip.AddrFrom4(nh),
			MED:     med, HasMED: hasMED,
		}
		for _, c := range comms {
			a.Communities = append(a.Communities, Community(c))
		}
		var nlri []NLRI
		for i, p := range prefixes {
			nlri = append(nlri, NLRI{Prefix: netip.PrefixFrom(netip.AddrFrom4(p), (i%33+24)%33).Masked()})
		}
		m := &Update{Attrs: a, NLRI: nlri}
		opts := &codecOpts{as4: true}
		b, err := marshalMessage(m, opts)
		if err != nil {
			return true // oversized message: marshal correctly refuses
		}
		got, err := readMessage(bytes.NewReader(b), opts)
		if err != nil {
			return false
		}
		gu := got.(*Update)
		if !reflect.DeepEqual(gu.NLRI, m.NLRI) {
			return false
		}
		if hasMED != gu.Attrs.HasMED || (hasMED && gu.Attrs.MED != med) {
			return false
		}
		return reflect.DeepEqual(gu.Attrs.ASPathFlat(), a.ASPathFlat())
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMessageTooLargeRejected(t *testing.T) {
	var nlri []NLRI
	for i := 0; i < 2000; i++ {
		nlri = append(nlri, NLRI{Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 30)})
	}
	m := &Update{Attrs: baseAttrs(), NLRI: nlri}
	if _, err := marshalMessage(m, &codecOpts{}); err == nil {
		t.Error("oversized message should fail to marshal")
	}
}

func TestBadMarkerRejected(t *testing.T) {
	b, err := marshalMessage(&Keepalive{}, &codecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 0
	if _, err := readMessage(bytes.NewReader(b), &codecOpts{}); err == nil {
		t.Error("bad marker accepted")
	}
}

func TestDuplicateAttributeRejected(t *testing.T) {
	// Two ORIGIN attributes.
	attrs := appendAttrHeader(nil, FlagTransitive, AttrOrigin, 1)
	attrs = append(attrs, OriginIGP)
	attrs = appendAttrHeader(attrs, FlagTransitive, AttrOrigin, 1)
	attrs = append(attrs, OriginEGP)
	body := []byte{0, 0, 0, byte(len(attrs))}
	body = append(body, attrs...)
	_, err := decodeBody(MsgUpdate, body, &codecOpts{}, new(Update))
	if err == nil {
		t.Error("duplicate attribute accepted")
	}
}

// marshalMessage frames a message with the BGP header.
func marshalMessage(m Message, opts *codecOpts) ([]byte, error) {
	return appendMessage(make([]byte, 0, HeaderLen+64), m, opts)
}
