package bgp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// chunkReader hands out its data in pieces whose sizes are drawn from
// cuts (cycled), the way a transport delivers a stream in arbitrary
// segments.
type chunkReader struct {
	data []byte
	cuts []byte
	i    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.cuts) > 0 {
		n = min(n, 1+int(c.cuts[c.i%len(c.cuts)])*7)
		c.i++
	}
	n = copy(p[:n], c.data)
	c.data = c.data[n:]
	return n, nil
}

// errClass reduces a read error to what a session acts on.
func errClass(err error) string {
	var ne *NotificationError
	switch {
	case err == nil:
		return ""
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return "end of stream"
	case errors.As(err, &ne):
		return fmt.Sprintf("notification %d/%d %x", ne.Code, ne.Subcode, ne.Data)
	default:
		return err.Error()
	}
}

// frameStream frames msgs back to back.
func frameStream(t testing.TB, opts *codecOpts, msgs ...Message) []byte {
	var stream []byte
	for _, m := range msgs {
		var err error
		if stream, err = appendMessage(stream, m, opts); err != nil {
			t.Fatal(err)
		}
	}
	return stream
}

// sampleStream frames one message of every kind, with every attribute
// the decoders copy out of the frame.
func sampleStream(t testing.TB, opts *codecOpts) []byte {
	attrs := &PathAttrs{
		Origin: OriginEGP, HasOrigin: true,
		ASPath:  []ASPathSegment{{Type: ASSequence, ASNs: []uint32{65001, 4200000001}}, {Type: ASSet, ASNs: []uint32{7, 8}}},
		NextHop: ip("192.0.2.1"), MED: 5, HasMED: true, LocalPref: 100, HasLocalPref: true,
		AtomicAggregate: true, Aggregator: &Aggregator{ASN: 65010, Addr: ip("10.1.1.1")},
		Communities:      []Community{NewCommunity(65001, 1), NewCommunity(65001, 2)},
		LargeCommunities: []LargeCommunity{{1, 2, 3}},
		MPNextHop:        ip("2001:db8::1"),
		Unknown:          []UnknownAttr{{Flags: FlagOptional | FlagTransitive, Type: 99, Data: []byte("opaque-bytes")}},
	}
	return frameStream(t, opts,
		&Open{Version: Version, ASN: 65002, HoldTime: 90, BGPID: ip("10.0.0.2"), Caps: &Capabilities{
			AS4: 65002, RouteRefresh: true, MP: []AFISAFI{IPv4Unicast, IPv6Unicast},
			AddPath: map[AFISAFI]uint8{IPv4Unicast: AddPathSendReceive},
			GR:      &GracefulRestart{Time: 120 * time.Second, Families: []GRFamily{{Family: IPv4Unicast, Forwarding: true}}},
		}},
		&Keepalive{},
		&Update{Attrs: attrs, NLRI: []NLRI{{Prefix: pfx("203.0.113.0/24"), ID: 3}, {Prefix: pfx("198.51.100.0/25"), ID: 4}},
			Withdrawn: []NLRI{{Prefix: pfx("10.0.0.0/8"), ID: 1}},
			MPReach:   []NLRI{{Prefix: pfx("2001:db8:1::/48"), ID: 9}}, MPUnreach: []NLRI{{Prefix: pfx("2001:db8:2::/48"), ID: 2}}},
		&RouteRefresh{Family: IPv6Unicast},
		EndOfRIB(IPv4Unicast),
		EndOfRIB(IPv6Unicast),
		&Notification{Code: ErrCodeCease, Subcode: CeaseOutOfResources, Data: []byte("why")},
	)
}

// TestFrameReaderDecodesDoNotAliasBuffer: nothing a decoded message
// holds points into the frame buffer — scribbling over every consumed
// byte once a message is yielded leaves it equal to what the
// one-message-at-a-time reference decodes from a pristine copy.
func TestFrameReaderDecodesDoNotAliasBuffer(t *testing.T) {
	opts := &codecOpts{as4: true, addPathV4: true, addPathV6: true}
	stream := sampleStream(t, opts)
	ref := bytes.NewReader(stream)
	f := &frameReader{r: &chunkReader{data: append([]byte(nil), stream...), cuts: []byte{0, 3, 40, 1}}}
	for i := 0; ; i++ {
		m, err := f.readMessage(opts)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for j := range f.buf[:f.off] {
			f.buf[j] = 0xAA
		}
		want, err := readMessage(ref, opts)
		if err != nil {
			t.Fatalf("reference decode of message %d: %v", i, err)
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("message %d changed when the frame buffer was overwritten:\n got %+v\nwant %+v", i, m, want)
		}
	}
	if ref.Len() != 0 {
		t.Fatalf("frame reader stopped with %d bytes of the stream undecoded", ref.Len())
	}
}

// compareWithReference decodes stream once through a frameReader fed in
// chunks and once with readMessage a message at a time, and requires
// the same messages and the same terminal condition. Each message is
// compared when it is yielded, through the frameReader's reused Update,
// against a fresh decode: a list or attribute set left over from an
// earlier message, or an empty list where the fresh decode has none,
// fails it.
func compareWithReference(t *testing.T, stream, cuts []byte, opts *codecOpts) {
	t.Helper()
	ref := bytes.NewReader(stream)
	f := &frameReader{r: &chunkReader{data: stream, cuts: cuts}}
	for i := 0; ; i++ {
		want, wantErr := readMessage(ref, opts)
		got, gotErr := f.readMessage(opts)
		if errClass(gotErr) != errClass(wantErr) {
			t.Fatalf("message %d: frame reader ended with %q, reference with %q", i, errClass(gotErr), errClass(wantErr))
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d: frame reader decoded %+v, reference %+v", i, got, want)
		}
	}
}

// FuzzFrameReader feeds one byte stream to the session's frame reader
// under arbitrary chunking and to the one-message-at-a-time reference:
// same messages, same errors, wherever the transport cuts the stream.
func FuzzFrameReader(f *testing.F) {
	opts := &codecOpts{as4: true, addPathV4: true, addPathV6: true}
	stream := sampleStream(f, opts)
	f.Add(stream, []byte{0})
	f.Add(stream, []byte{255, 0, 2})
	f.Add(stream[:len(stream)-5], []byte{1, 1, 9})                         // ends inside a frame
	f.Add(append(append([]byte(nil), stream...), 0xff), []byte{200})       // trailing garbage
	big := encodeUpdates(perRouteAdverts(2500, baseAttrsASN(65001)), opts) // full-size frames back to back
	f.Add(append([]byte(nil), big.buf.buf...), []byte{80, 3})
	big.buf.drop()
	bad := append([]byte(nil), stream...)
	bad[HeaderLen+10+16] = 0 // a broken marker in the second message
	f.Add(bad, []byte{4})
	// Streams that reuse the reader's Update across kinds of UPDATE: a
	// withdrawal after an announcement, an End-of-RIB after each, and
	// an IPv6 MP UPDATE after an IPv4 one.
	a := baseAttrsASN(65001)
	a.Communities = []Community{NewCommunity(65001, 7)}
	a6 := baseAttrsASN(65001)
	a6.MPNextHop = ip("2001:db8::1")
	v4 := []NLRI{{Prefix: pfx("203.0.113.0/24"), ID: 1}, {Prefix: pfx("198.51.100.0/24"), ID: 2}}
	v6 := []NLRI{{Prefix: pfx("2001:db8:1::/48"), ID: 3}}
	f.Add(frameStream(f, opts, &Update{Attrs: a, NLRI: v4}, &Update{Withdrawn: v4[:1]}), []byte{0})
	f.Add(frameStream(f, opts, &Update{Attrs: a, NLRI: v4}, EndOfRIB(IPv4Unicast),
		&Update{Withdrawn: v4}, EndOfRIB(IPv6Unicast)), []byte{5, 1})
	f.Add(frameStream(f, opts, &Update{Attrs: a, NLRI: v4, Withdrawn: v4[1:]}, &Update{Attrs: a6, MPReach: v6},
		&Update{Attrs: &PathAttrs{}, MPUnreach: v6}), []byte{2})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		compareWithReference(t, data, cuts, opts)
	})
}

// TestFrameReaderRandomChunking runs the fuzz property over seeded
// random streams and cut patterns, so plain `go test` covers it too.
func TestFrameReaderRandomChunking(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 40; round++ {
		opts := &allOptionSets[rng.Intn(len(allOptionSets))]
		updates, _ := randomBlock(rng, false)
		b := encodeUpdates(updates, opts)
		stream := append([]byte(nil), b.buf.buf...)
		b.buf.drop()
		if rng.Intn(4) == 0 {
			stream = stream[:rng.Intn(len(stream))]
		}
		cuts := make([]byte, 1+rng.Intn(8))
		rng.Read(cuts)
		compareWithReference(t, stream, cuts, opts)
	}
}
