package bgp

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// refPackBatch and refEncode are the export path as it was before the
// block encoder: runs merged into materialized UPDATEs, each then framed
// by appendMessage — once per session, at the time. They stay here as
// the reference the encode-once bytes are compared with.
func refPackBatch(updates []*Update, opts *codecOpts) []*Update {
	packed := make([]*Update, 0, len(updates))
	for i := 0; i < len(updates); {
		u := updates[i]
		switch {
		case packableAdvert(u):
			j := i + 1
			for j < len(updates) && packableAdvert(updates[j]) && updates[j].Attrs == u.Attrs {
				j++
			}
			if j == i+1 {
				packed = append(packed, u)
				i = j
				continue
			}
			budget := MaxMessageLen - HeaderLen - 4 -
				len(appendAttrs(nil, u.Attrs, opts.as4, nil, nil, opts.addPathV6))
			frame := &Update{Attrs: u.Attrs}
			used := 0
			for _, v := range updates[i:j] {
				for _, n := range v.NLRI {
					sz := nlriWireSize(n, opts.addPathV4)
					if used+sz > budget && len(frame.NLRI) > 0 {
						packed = append(packed, frame)
						frame = &Update{Attrs: u.Attrs}
						used = 0
					}
					frame.NLRI = append(frame.NLRI, n)
					used += sz
				}
			}
			if len(frame.NLRI) > 0 {
				packed = append(packed, frame)
			}
			i = j
		case packableWithdraw(u):
			j := i + 1
			for j < len(updates) && packableWithdraw(updates[j]) {
				j++
			}
			if j == i+1 {
				packed = append(packed, u)
				i = j
				continue
			}
			budget := MaxMessageLen - HeaderLen - 4
			frame := &Update{}
			used := 0
			for _, v := range updates[i:j] {
				for _, n := range v.Withdrawn {
					sz := nlriWireSize(n, opts.addPathV4)
					if used+sz > budget && len(frame.Withdrawn) > 0 {
						packed = append(packed, frame)
						frame = &Update{}
						used = 0
					}
					frame.Withdrawn = append(frame.Withdrawn, n)
					used += sz
				}
			}
			if len(frame.Withdrawn) > 0 {
				packed = append(packed, frame)
			}
			i = j
		default:
			packed = append(packed, u)
			i++
		}
	}
	return packed
}

func refEncode(t *testing.T, updates []*Update, opts *codecOpts) []byte {
	t.Helper()
	var out []byte
	for _, u := range refPackBatch(updates, opts) {
		var err error
		if out, err = appendMessage(out, u, opts); err != nil {
			t.Fatalf("reference encode: %v", err)
		}
	}
	return out
}

// randomAttrs draws an attribute set exercising every encoder branch:
// long and 4-octet AS paths (extended lengths, AS4_PATH), sets, MED,
// communities, aggregator, unknown attributes.
func randomAttrs(rng *rand.Rand) *PathAttrs {
	a := &PathAttrs{Origin: uint8(rng.Intn(3)), HasOrigin: true, NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + rng.Intn(200))})}
	for s := 0; s < 1+rng.Intn(3); s++ {
		seg := ASPathSegment{Type: ASSequence}
		if rng.Intn(5) == 0 {
			seg.Type = ASSet
		}
		hops := rng.Intn(8)
		if rng.Intn(10) == 0 {
			hops = 60 + rng.Intn(240) // past one octet of length, past one segment
		}
		for h := 0; h < hops; h++ {
			asn := uint32(1 + rng.Intn(65000))
			if rng.Intn(6) == 0 {
				asn = 4200000000 + uint32(rng.Intn(1000))
			}
			seg.ASNs = append(seg.ASNs, asn)
		}
		a.ASPath = append(a.ASPath, seg)
	}
	if rng.Intn(2) == 0 {
		a.MED, a.HasMED = rng.Uint32(), true
	}
	if rng.Intn(3) == 0 {
		a.LocalPref, a.HasLocalPref = rng.Uint32(), true
	}
	a.AtomicAggregate = rng.Intn(8) == 0
	if rng.Intn(6) == 0 {
		a.Aggregator = &Aggregator{ASN: 4200000000 + uint32(rng.Intn(9)), Addr: netip.AddrFrom4([4]byte{10, 0, 0, 1})}
	}
	for c := 0; c < rng.Intn(5); c++ {
		a.Communities = append(a.Communities, Community(rng.Uint32()))
	}
	for c := 0; c < rng.Intn(3); c++ {
		a.LargeCommunities = append(a.LargeCommunities, LargeCommunity{rng.Uint32(), rng.Uint32(), rng.Uint32()})
	}
	if rng.Intn(6) == 0 {
		a.Unknown = append(a.Unknown, UnknownAttr{Flags: FlagOptional | FlagTransitive, Type: 99, Data: make([]byte, rng.Intn(300))})
	}
	return a
}

func randomV4(rng *rand.Rand) NLRI {
	bits := 8 + rng.Intn(25)
	p, _ := netip.AddrFrom4([4]byte{byte(1 + rng.Intn(220)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}).Prefix(bits)
	return NLRI{Prefix: p, ID: PathID(rng.Intn(4))}
}

func randomV6(rng *rand.Rand) NLRI {
	raw := [16]byte{0x20, 0x01, 0x0d, 0xb8, byte(rng.Intn(256)), byte(rng.Intn(256))}
	p, _ := netip.AddrFrom16(raw).Prefix(32 + rng.Intn(33))
	return NLRI{Prefix: p, ID: PathID(rng.Intn(4))}
}

// randomBlock draws an update block mixing everything a caller may hand
// SendBatch: same-attribute runs long enough to split across frames,
// lone and multi-NLRI advertisements, withdrawal runs, IPv6 routes,
// mixed updates, End-of-RIB markers. With routesOnly it draws only what
// a route list can express (one route per update, no mixed updates, no
// markers) and returns the block as one too.
func randomBlock(rng *rand.Rand, routesOnly bool) (updates []*Update, routes []Route) {
	for len(updates) < 40+rng.Intn(200) {
		k := rng.Intn(10)
		if routesOnly && (k == 6 || k >= 8) {
			k = 7
		}
		switch {
		case k < 4: // a run of per-route adverts under one attribute set
			a := randomAttrs(rng)
			run := 1 + rng.Intn(6)
			if rng.Intn(8) == 0 {
				run = 400 + rng.Intn(600)
			}
			for i := 0; i < run; i++ {
				n := randomV4(rng)
				updates = append(updates, &Update{Attrs: a, NLRI: []NLRI{n}})
				routes = append(routes, Route{n, a})
			}
		case k < 6: // withdrawals
			for i := 0; i < 1+rng.Intn(40); i++ {
				n := randomV4(rng)
				updates = append(updates, &Update{Withdrawn: []NLRI{n}})
				routes = append(routes, Route{NLRI: n})
			}
		case k == 6: // one advert carrying several NLRI
			u := &Update{Attrs: randomAttrs(rng)}
			for i := 0; i < 2+rng.Intn(20); i++ {
				u.NLRI = append(u.NLRI, randomV4(rng))
			}
			updates = append(updates, u)
		case k == 7: // IPv6
			a, n := randomAttrs(rng), randomV6(rng)
			a.NextHop, a.MPNextHop = netip.Addr{}, netip.MustParseAddr("2001:db8::1")
			if rng.Intn(3) == 0 {
				updates = append(updates, &Update{Attrs: &PathAttrs{}, MPUnreach: []NLRI{n}})
				routes = append(routes, Route{NLRI: n})
			} else {
				updates = append(updates, &Update{Attrs: a, MPReach: []NLRI{n}})
				routes = append(routes, Route{n, a})
			}
		case k == 8: // advert and withdrawal in one message
			updates = append(updates, &Update{Attrs: randomAttrs(rng), NLRI: []NLRI{randomV4(rng)}, Withdrawn: []NLRI{randomV4(rng)}})
		default:
			updates = append(updates, EndOfRIB([]AFISAFI{IPv4Unicast, IPv6Unicast}[rng.Intn(2)]))
		}
	}
	return updates, routes
}

var allOptionSets = func() (out []codecOpts) {
	for i := 0; i < 8; i++ {
		out = append(out, codecOpts{as4: i&1 != 0, addPathV4: i&2 != 0, addPathV6: i&4 != 0})
	}
	return out
}()

// TestEncodeOnceByteEquality: for random update blocks and every
// negotiated option set, the block encoder's bytes are exactly what
// framing the reference packer's output message by message produces —
// and the route-list entry point (FanOut's) yields the same bytes where
// the block can be written as a route list.
func TestEncodeOnceByteEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(20190101))
	for round := 0; round < 60; round++ {
		routable := round%3 == 0
		updates, routes := randomBlock(rng, routable)
		for i := range allOptionSets {
			opts := &allOptionSets[i]
			want := refEncode(t, updates, opts)
			got := encodeUpdates(updates, opts)
			if got.err != nil {
				t.Fatalf("round %d %+v: %v", round, *opts, got.err)
			}
			if !bytes.Equal(got.buf.buf, want) {
				t.Fatalf("round %d %+v: encode-once bytes differ from the reference (%d vs %d bytes)", round, *opts, len(got.buf.buf), len(want))
			}
			if msgs, err := decodeBlock(want, opts); err != nil || len(msgs) != got.msgs {
				t.Fatalf("round %d %+v: block holds %d messages (%v), encoder counted %d", round, *opts, len(msgs), err, got.msgs)
			}
			got.buf.drop()
			if routable {
				fromRoutes := encodeRoutes(routes, opts)
				if fromRoutes.err != nil || !bytes.Equal(fromRoutes.buf.buf, want) {
					t.Fatalf("round %d %+v: route-list bytes differ from the reference (%v)", round, *opts, fromRoutes.err)
				}
				fromRoutes.buf.drop()
			}
		}
	}
}

// TestAttrLengthPatchedInPlace: an attribute body encoded behind a
// patched length is byte for byte what sizing the body first and writing
// the header afterwards produced, on both sides of the one-octet limit.
func TestAttrLengthPatchedInPlace(t *testing.T) {
	prefix := []byte{0xde, 0xad}
	for n := 0; n < 700; n++ {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i)
		}
		want := append(appendAttrHeader(append([]byte(nil), prefix...), FlagTransitive, AttrASPath, n), body...)
		got, at := beginAttr(append([]byte(nil), prefix...), FlagTransitive, AttrASPath)
		got = endAttr(append(got, body...), at)
		if !bytes.Equal(got, want) {
			t.Fatalf("body of %d bytes: in-place header % x, want % x", n, got[:6], want[:6])
		}
	}
}

// TestEncodeBlockOversizedMessage: a message that cannot be framed ends
// the block there — the frames before it stay, the error is reported.
func TestEncodeBlockOversizedMessage(t *testing.T) {
	huge := baseAttrsASN(65001)
	huge.Unknown = []UnknownAttr{{Flags: FlagOptional | FlagTransitive, Type: 99, Data: make([]byte, MaxMessageLen)}}
	in := append(perRouteAdverts(3, baseAttrsASN(65002)), &Update{Attrs: huge, NLRI: []NLRI{{Prefix: pfx("10.9.9.0/24")}}})
	in = append(in, perRouteAdverts(2, baseAttrsASN(65003))...)
	b := encodeUpdates(in, &codecOpts{})
	defer b.buf.drop()
	if b.err == nil {
		t.Fatal("oversized message framed without error")
	}
	msgs, err := decodeBlock(b.buf.buf, &codecOpts{})
	if err != nil || len(msgs) != 1 || b.msgs != 1 {
		t.Fatalf("valid prefix: %d messages decoded (%v), encoder counted %d, want 1", len(msgs), err, b.msgs)
	}
}

// fanPeer is the receiving end of one fan-out session.
type fanPeer struct {
	out    *Session // the end FanOut writes to
	mu     sync.Mutex
	routes []flatRoute
	count  atomic.Int64
}

func (p *fanPeer) onUpdate(u *Update) {
	flat := flattenRoutes([]*Update{u})
	p.mu.Lock()
	p.routes = append(p.routes, flat...)
	p.mu.Unlock()
	p.count.Add(int64(len(flat)))
}

func waitCount(t *testing.T, what string, get func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for get() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d, want %d", what, get(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFanOutSharesOneEncode fans one route list out to sessions with two
// different option sets, one of them paced by MRAI, and a session that
// is not Established: everybody Established gets the same routes in the
// same order, each session's counters account for the whole block, and
// the skipped session is not counted.
func TestFanOutSharesOneEncode(t *testing.T) {
	addPath := map[AFISAFI]uint8{IPv4Unicast: AddPathSendReceive}
	var peers []*fanPeer
	for i, cfg := range []Config{
		{AddPath: addPath}, {AddPath: addPath}, {AddPath: addPath}, // one option set, shared bytes
		{},                            // a second option set
		{MRAI: 20 * time.Millisecond}, // paced: per-session path
	} {
		p := &fanPeer{}
		cfg.LocalASN, cfg.RemoteASN, cfg.LocalID = 65001, 65002, ip("10.0.0.1")
		cfg.PeerName = fmt.Sprintf("test:fan%d", i)
		p.out, _ = startPair(t, cfg, Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2"),
			AddPath: cfg.AddPath, OnUpdate: p.onUpdate})
		peers = append(peers, p)
	}
	idle := NewSession(nil, Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1")})

	// A run that splits across frames (large enough to be shared by
	// reference), a second attribute set, withdrawals.
	a1, a2 := baseAttrsASN(65001), baseAttrsASN(65009)
	var routes []Route
	for i := 0; i < 900; i++ {
		routes = append(routes, Route{NLRI{Prefix: pfx(fmt.Sprintf("10.%d.%d.0/24", i>>8, i&0xff))}, a1})
	}
	for i := 0; i < 5; i++ {
		routes = append(routes, Route{NLRI{Prefix: pfx(fmt.Sprintf("172.16.%d.0/24", i))}, a2})
		routes = append(routes, Route{NLRI: NLRI{Prefix: pfx(fmt.Sprintf("203.0.113.%d/32", i))}})
	}
	var sessions []*Session
	for _, p := range peers {
		sessions = append(sessions, p.out)
	}
	before := make([][2]uint64, len(peers))
	for i, p := range peers {
		before[i] = [2]uint64{p.out.UpdatesOut.Load(), p.out.BytesOut.Load()}
	}
	took, err := FanOut(append(sessions, idle), routes)
	if err != nil || took != len(peers) {
		t.Fatalf("FanOut took %d sessions (%v), want %d", took, err, len(peers))
	}
	want := make([]flatRoute, len(routes))
	for i, r := range routes {
		want[i] = flatRoute{prefix: r.NLRI.Prefix.String(), withdraw: r.Attrs == nil}
		if r.Attrs != nil {
			want[i].firstASN = r.Attrs.FirstASN()
		}
	}
	for i, p := range peers {
		waitCount(t, fmt.Sprintf("session %d routes", i), p.count.Load, int64(len(routes)))
		p.mu.Lock()
		sameRoutes(t, p.routes, want)
		p.mu.Unlock()
	}
	// Shared blocks count in full on every session they went to: the
	// three sessions with one option set sent identical bytes.
	updates, bytesOut := peers[0].out.UpdatesOut.Load()-before[0][0], peers[0].out.BytesOut.Load()-before[0][1]
	if updates < 3 || bytesOut == 0 {
		t.Fatalf("session 0 counted %d updates, %d bytes for the block", updates, bytesOut)
	}
	for i := 1; i < 3; i++ {
		if u, b := peers[i].out.UpdatesOut.Load()-before[i][0], peers[i].out.BytesOut.Load()-before[i][1]; u != updates || b != bytesOut {
			t.Errorf("session %d counted %d updates, %d bytes; session 0 %d, %d", i, u, b, updates, bytesOut)
		}
	}
	if idle.UpdatesOut.Load() != 0 {
		t.Error("a session that is not Established was sent the block")
	}
}

// TestSendIsDoneWithItsArguments: Send and SendBatch encode before they
// return, so a caller may rewrite the update in place for its next send
// (the benchmark's generators and MRAI-free fan-outs do).
func TestSendIsDoneWithItsArguments(t *testing.T) {
	recv := make(chan uint32, 256)
	sa, _ := startPair(t,
		Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1")},
		Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2"),
			OnUpdate: func(u *Update) { recv <- u.Attrs.MED }},
	)
	u := &Update{Attrs: baseAttrsASN(65001), NLRI: []NLRI{{Prefix: pfx("10.0.0.0/24")}}}
	u.Attrs.HasMED = true
	for i := uint32(0); i < 200; i++ {
		u.Attrs.MED = i
		var err error
		if i%2 == 0 {
			err = sa.Send(u)
		} else {
			err = sa.SendBatch([]*Update{u})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 200; i++ {
		select {
		case got := <-recv:
			if got != i {
				t.Fatalf("update %d arrived with MED %d: encoded after Send returned, or out of order", i, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("update %d not delivered", i)
		}
	}
}

// TestNetPipeTransport: with writes on their own goroutine a session
// runs over a fully synchronous transport (net.Pipe), where both ends
// writing their OPEN first used to require a buffered one.
func TestNetPipeTransport(t *testing.T) {
	a, b := netPipeSessions(t, Config{}, Config{})
	if a.State() != StateEstablished || b.State() != StateEstablished {
		t.Fatalf("states over net.Pipe: %s %s", a.State(), b.State())
	}
}

// decodeBlock decodes a contiguous concatenation of framed BGP messages
// — the wire image of one batched write (Session.SendBatch). It returns
// the messages decoded before the first error, if any, each UPDATE
// copied out of the frameReader that lends it; a trailing partial frame
// is an error.
func decodeBlock(data []byte, opts *codecOpts) ([]Message, error) {
	var msgs []Message
	f := &frameReader{r: bytes.NewReader(data)}
	for {
		m, err := f.readMessage(opts)
		if err == io.EOF {
			return msgs, nil
		}
		if err != nil {
			return msgs, err
		}
		if u, ok := m.(*Update); ok {
			m = keep(u)
		}
		msgs = append(msgs, m)
	}
}
