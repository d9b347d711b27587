package bgp

import (
	"bytes"
	"testing"
)

// FuzzReadMessage exercises the full message reader with arbitrary
// bytes. Run continuously with `go test -fuzz=FuzzReadMessage`; as a
// plain test it replays the seed corpus.
func FuzzReadMessage(f *testing.F) {
	// Seeds: every message type, valid and slightly damaged.
	opts := &codecOpts{as4: true, addPathV4: true}
	seed := func(m Message) {
		b, err := marshalMessage(m, opts)
		if err == nil {
			f.Add(b)
		}
	}
	seed(&Keepalive{})
	seed(&Notification{Code: ErrCodeCease, Subcode: CeaseAdminShutdown})
	seed(&RouteRefresh{Family: IPv6Unicast})
	seed(&Open{Version: Version, ASN: ASTrans, HoldTime: 90, BGPID: ip("10.0.0.1"),
		Caps: &Capabilities{AS4: 4200000001, MP: []AFISAFI{IPv4Unicast, IPv6Unicast},
			RouteRefresh: true, AddPath: map[AFISAFI]uint8{IPv4Unicast: AddPathSendReceive}}})
	seed(&Update{Attrs: &PathAttrs{Origin: OriginIGP, HasOrigin: true,
		ASPath:      []ASPathSegment{{Type: ASSequence, ASNs: []uint32{65001, 4200000001}}},
		NextHop:     ip("192.0.2.1"),
		Communities: []Community{NewCommunity(47065, 1)}},
		NLRI: []NLRI{{Prefix: pfx("10.0.0.0/24"), ID: 7}}})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, o := range []*codecOpts{{}, {as4: true}, {as4: true, addPathV4: true, addPathV6: true}} {
			msg, err := readMessage(bytes.NewReader(data), o)
			if err != nil {
				continue
			}
			// Anything that decodes must re-encode without panicking.
			if _, err := marshalMessage(msg, o); err != nil {
				// Oversized re-encodings are legal failures.
				continue
			}
		}
	})
}

// FuzzParseAttrs targets the attribute block parser directly.
func FuzzParseAttrs(f *testing.F) {
	a := baseAttrs()
	a.Communities = []Community{NewCommunity(47065, 1)}
	a.LargeCommunities = []LargeCommunity{{Global: 4200000000, Local1: 1, Local2: 2}}
	a.Unknown = []UnknownAttr{{Flags: FlagOptional | FlagTransitive, Type: 99, Data: []byte{1, 2}}}
	f.Add(marshalAttrs(a, true, nil, nil, false), true, false)
	f.Add(marshalAttrs(a, false, nil, nil, false), false, false)
	f.Add(marshalAttrs(a, true, []NLRI{{Prefix: pfx("2001:db8::/32"), ID: 3}}, nil, true), true, true)

	f.Fuzz(func(t *testing.T, data []byte, as4, addPath bool) {
		attrs, _, _, err := parseAttrs(data, as4, addPath, nil, nil)
		if err != nil || attrs == nil {
			return
		}
		// Round-trippable invariants: flattening and cloning never panic
		// and agree with each other.
		flat := attrs.ASPathFlat()
		clone := attrs.Clone()
		if len(clone.ASPathFlat()) != len(flat) {
			t.Fatalf("clone changed path length")
		}
	})
}

// marshalAttrs encodes the attribute set into a fresh slice; see
// appendAttrs.
func marshalAttrs(a *PathAttrs, as4 bool, mpNLRI []NLRI, mpWithdraw []NLRI, addPath bool) []byte {
	return appendAttrs(nil, a, as4, mpNLRI, mpWithdraw, addPath)
}
