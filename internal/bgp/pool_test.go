package bgp

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestEncodeBufferPool is the table-driven pool contract: checkout
// always yields an empty buffer, in-range buffers are recycled, and
// oversized ones are dropped for the GC instead of pinning their
// high-water mark in the pool.
func TestEncodeBufferPool(t *testing.T) {
	cases := []struct {
		name       string
		grow       int
		wantPooled bool
	}{
		{"small", 100, true},
		{"exactly at cap", maxPooledEncodeCap, true},
		{"oversized", maxPooledEncodeCap + 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eb := getEncodeBuffer()
			if len(eb.buf) != 0 {
				t.Fatalf("checkout yielded %d bytes of stale data", len(eb.buf))
			}
			eb.buf = append(eb.buf, make([]byte, tc.grow)...)
			if pooled := eb.release(); pooled != tc.wantPooled {
				t.Fatalf("release() after growing to %d = %v, want %v", tc.grow, pooled, tc.wantPooled)
			}
			// Whatever the pool hands out next must be reset.
			next := getEncodeBuffer()
			defer next.release()
			if len(next.buf) != 0 {
				t.Fatalf("pooled buffer not reset: len %d", len(next.buf))
			}
		})
	}
}

// TestEncodeBufferConcurrentCheckout hammers the pool from several
// goroutines; under -race this is the checkout/release soak. Each
// goroutine writes a distinct pattern and verifies it before release,
// catching any buffer handed to two owners at once.
func TestEncodeBufferConcurrentCheckout(t *testing.T) {
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pat := byte(w + 1)
			for i := 0; i < iters; i++ {
				eb := getEncodeBuffer()
				if len(eb.buf) != 0 {
					t.Errorf("worker %d: checkout yielded non-empty buffer", w)
					return
				}
				for j := 0; j < 64; j++ {
					eb.buf = append(eb.buf, pat)
				}
				for j, b := range eb.buf {
					if b != pat {
						t.Errorf("worker %d: byte %d corrupted: %d", w, j, b)
						return
					}
				}
				eb.release()
			}
		}(w)
	}
	wg.Wait()
}

// perRouteAdverts builds n single-NLRI updates sharing one attribute
// set — the shape table dumps and batched propagation emit.
func perRouteAdverts(n int, attrs *PathAttrs) []*Update {
	out := make([]*Update, n)
	for i := range out {
		out[i] = &Update{Attrs: attrs, NLRI: []NLRI{{Prefix: pfx(fmt.Sprintf("10.%d.%d.0/24", i>>8, i&0xff))}}}
	}
	return out
}

// flattenRoutes reduces a slice of updates to the ordered route
// sequence it carries: advertised NLRI (keyed by the attrs that carried
// them) and withdrawals, ignoring frame boundaries.
type flatRoute struct {
	prefix   string
	withdraw bool
	firstASN uint32
}

func flattenRoutes(updates []*Update) []flatRoute {
	var out []flatRoute
	for _, u := range updates {
		for _, n := range u.Withdrawn {
			out = append(out, flatRoute{prefix: n.Prefix.String(), withdraw: true})
		}
		for _, n := range u.NLRI {
			out = append(out, flatRoute{prefix: n.Prefix.String(), firstASN: u.Attrs.FirstASN()})
		}
	}
	return out
}

func baseAttrsASN(asn uint32) *PathAttrs {
	return &PathAttrs{
		Origin: OriginIGP, HasOrigin: true,
		ASPath:  []ASPathSegment{{Type: ASSequence, ASNs: []uint32{asn}}},
		NextHop: ip("192.0.2.1"),
	}
}

// packed runs updates through the block encoder — what SendBatch and
// FanOut queue — and decodes the block back into its frames.
func packed(t *testing.T, updates []*Update, opts *codecOpts) []*Update {
	t.Helper()
	b := encodeUpdates(updates, opts)
	defer b.buf.drop()
	if b.err != nil {
		t.Fatalf("encode: %v", b.err)
	}
	msgs, err := decodeBlock(b.buf.buf, opts)
	if err != nil {
		t.Fatalf("decodeBlock: %v", err)
	}
	if len(msgs) != b.msgs {
		t.Fatalf("block holds %d messages, encoder counted %d", len(msgs), b.msgs)
	}
	out := make([]*Update, len(msgs))
	for i, m := range msgs {
		out[i] = m.(*Update)
	}
	return out
}

func sameRoutes(t *testing.T, got, want []flatRoute) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("flattened %d routes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("route[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestPackBatchMergesSharedAttrRun checks a run of per-route updates
// under one *PathAttrs collapses into a single multi-NLRI frame with
// route order intact.
func TestPackBatchMergesSharedAttrRun(t *testing.T) {
	attrs := baseAttrsASN(65001)
	in := perRouteAdverts(100, attrs)
	out := packed(t, in, &codecOpts{})
	if len(out) != 1 {
		t.Fatalf("packed %d updates into %d frames, want 1", len(in), len(out))
	}
	if out[0].Attrs.FirstASN() != 65001 || len(out[0].NLRI) != 100 {
		t.Fatalf("packed frame does not carry the run under its attribute set: %d NLRI", len(out[0].NLRI))
	}
	sameRoutes(t, flattenRoutes(out), flattenRoutes(in))
}

// TestPackBatchBudgetSplit checks a run too large for one message
// splits into frames that each encode within MaxMessageLen.
func TestPackBatchBudgetSplit(t *testing.T) {
	opts := &codecOpts{}
	in := perRouteAdverts(1500, baseAttrsASN(65001)) // ~6000 B of NLRI, > one 4096 B frame
	out := packed(t, in, opts)
	if len(out) < 2 {
		t.Fatalf("1500 routes packed into %d frame(s), expected a split", len(out))
	}
	total := 0
	for i, u := range out {
		b, err := appendMessage(nil, u, opts)
		if err != nil {
			t.Fatalf("frame %d does not encode: %v", i, err)
		}
		if len(b) > MaxMessageLen {
			t.Fatalf("frame %d encodes to %d bytes, over the %d limit", i, len(b), MaxMessageLen)
		}
		total += len(u.NLRI)
	}
	if total != len(in) {
		t.Fatalf("packed frames carry %d routes, want %d", total, len(in))
	}
}

// TestPackBatchBoundaries checks what packing must NOT merge: runs
// under different attribute pointers (even if equal by value), and
// non-packable shapes, which are framed on their own, in place.
func TestPackBatchBoundaries(t *testing.T) {
	a1, a2 := baseAttrsASN(65001), baseAttrsASN(65001) // equal value, distinct pointers
	wd := func(p string) *Update { return &Update{Withdrawn: []NLRI{{Prefix: pfx(p)}}} }
	mixed := &Update{Attrs: a1, NLRI: []NLRI{{Prefix: pfx("192.0.2.0/24")}}, Withdrawn: []NLRI{{Prefix: pfx("198.51.100.0/24")}}}
	eor := EndOfRIB(IPv6Unicast)
	in := []*Update{
		perRouteAdverts(2, a1)[0], perRouteAdverts(2, a1)[1], // run 1: a1
		{Attrs: a2, NLRI: []NLRI{{Prefix: pfx("172.16.0.0/24")}}}, // pointer boundary
		wd("203.0.113.0/24"), wd("203.0.113.64/26"), // withdraw run
		mixed, // advert+withdraw in one update: framed as is
		eor,   // IPv6 End-of-RIB: framed as is
	}
	out := packed(t, in, &codecOpts{})
	if len(out) != 5 {
		t.Fatalf("packed into %d frames, want 5", len(out))
	}
	if len(out[0].NLRI) != 2 || len(out[0].Withdrawn) != 0 {
		t.Fatalf("run 1 not merged under a1: %d NLRI", len(out[0].NLRI))
	}
	if len(out[1].NLRI) != 1 || out[1].NLRI[0].Prefix != pfx("172.16.0.0/24") {
		t.Fatal("distinct-pointer update was merged across the attrs boundary")
	}
	if len(out[2].Withdrawn) != 2 || out[2].Attrs != nil {
		t.Fatalf("withdraw run not merged: %d prefixes", len(out[2].Withdrawn))
	}
	if len(out[3].NLRI) != 1 || len(out[3].Withdrawn) != 1 {
		t.Fatal("mixed update was not framed as is")
	}
	if fam, ok := out[4].EndOfRIBFamily(); !ok || fam != IPv6Unicast {
		t.Fatal("IPv6 End-of-RIB was not framed as is")
	}
	// Flattened route sequence is invariant under packing.
	sameRoutes(t, flattenRoutes(out), flattenRoutes(in))
}

// TestSendBatchSemanticEquality sends the same per-route update
// sequence through SendBatch on one session pair and through sequential
// Sends on another, and checks the receivers decode identical route
// sequences — same prefixes, same attributes, same order. Frame
// boundaries are allowed to differ; the routes are not.
func TestSendBatchSemanticEquality(t *testing.T) {
	build := func() []*Update {
		var in []*Update
		in = append(in, perRouteAdverts(600, baseAttrsASN(65001))...) // splits across frames
		in = append(in, perRouteAdverts(5, baseAttrsASN(65002))...)   // new attrs run
		for i := 0; i < 3; i++ {
			in = append(in, &Update{Withdrawn: []NLRI{{Prefix: pfx(fmt.Sprintf("203.0.113.%d/32", i))}}})
		}
		in = append(in, perRouteAdverts(5, baseAttrsASN(65003))...)
		return in
	}
	run := func(batched bool) []flatRoute {
		var mu sync.Mutex
		var recv []*Update
		total := 0
		for _, u := range build() {
			total += len(u.NLRI) + len(u.Withdrawn)
		}
		sa, _ := startPair(t,
			Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1")},
			Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2"),
				OnUpdate: func(u *Update) { mu.Lock(); recv = append(recv, keep(u)); mu.Unlock() }},
		)
		in := build()
		if batched {
			if err := sa.SendBatch(in); err != nil {
				t.Fatalf("SendBatch: %v", err)
			}
		} else {
			for _, u := range in {
				if err := sa.Send(u); err != nil {
					t.Fatalf("Send: %v", err)
				}
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			n := 0
			for _, u := range recv {
				n += len(u.NLRI) + len(u.Withdrawn)
			}
			mu.Unlock()
			if n == total {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("batched=%v: received %d of %d routes", batched, n, total)
			}
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		defer mu.Unlock()
		return flattenRoutes(recv)
	}
	sequential := run(false)
	batched := run(true)
	if len(sequential) != len(batched) {
		t.Fatalf("route counts differ: sequential %d, batched %d", len(sequential), len(batched))
	}
	for i := range sequential {
		if sequential[i] != batched[i] {
			t.Fatalf("route[%d]: sequential %+v, batched %+v", i, sequential[i], batched[i])
		}
	}
}

// TestDecodeBlockRoundTrip frames a packed block the way SendBatch does
// and checks decodeBlock recovers every message.
func TestDecodeBlockRoundTrip(t *testing.T) {
	opts := &codecOpts{}
	in := append(perRouteAdverts(1200, baseAttrsASN(65001)), &Update{Withdrawn: []NLRI{{Prefix: pfx("203.0.113.0/24")}}})
	b := encodeUpdates(in, opts)
	defer b.buf.drop()
	block := b.buf.buf
	msgs, err := decodeBlock(block, opts)
	if err != nil {
		t.Fatalf("decodeBlock: %v", err)
	}
	if len(msgs) != b.msgs || len(msgs) >= len(in) {
		t.Fatalf("decoded %d messages from %d updates, encoder counted %d", len(msgs), len(in), b.msgs)
	}
	var got []*Update
	for _, m := range msgs {
		got = append(got, m.(*Update))
	}
	sameRoutes(t, flattenRoutes(got), flattenRoutes(in))
	// A truncated block reports an error instead of inventing a message.
	if _, err := decodeBlock(block[:len(block)-3], opts); err == nil {
		t.Fatal("truncated block decoded without error")
	}
}

// FuzzDecodeBlock throws arbitrary byte blocks at the batched-block
// decoder: it must never panic, and whatever decodes must re-encode.
// Seeds include real packed blocks in several codec configurations.
func FuzzDecodeBlock(f *testing.F) {
	seed := func(updates []*Update, opts *codecOpts) {
		b := encodeUpdates(updates, opts)
		f.Add(append([]byte(nil), b.buf.buf...))
		b.buf.drop()
	}
	seed(perRouteAdverts(1200, baseAttrsASN(65001)), &codecOpts{})
	seed(perRouteAdverts(10, baseAttrsASN(4200000001)), &codecOpts{as4: true})
	seed([]*Update{
		{Withdrawn: []NLRI{{Prefix: pfx("203.0.113.0/24")}, {Prefix: pfx("0.0.0.0/0")}}},
		EndOfRIB(IPv4Unicast),
	}, &codecOpts{as4: true, addPathV4: true})
	// A block with a trailing partial frame.
	b, _ := marshalMessage(&Keepalive{}, &codecOpts{})
	f.Add(append(b, b[:HeaderLen-1]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, o := range []*codecOpts{{}, {as4: true}, {as4: true, addPathV4: true, addPathV6: true}} {
			msgs, err := decodeBlock(data, o)
			for _, m := range msgs {
				// Prefix-of-error messages must individually re-encode (or
				// fail cleanly on legal oversize), even when the block as a
				// whole errored.
				_, _ = marshalMessage(m, o)
			}
			if err == nil && len(data) > 0 {
				// A clean block must round-trip to the same byte image.
				var re []byte
				reErr := false
				for _, m := range msgs {
					r, err := appendMessage(re, m, o)
					if err != nil {
						reErr = true
						break
					}
					re = r
				}
				if !reErr && !bytes.Equal(re, data) {
					// Non-canonical but decodable inputs (e.g. unmasked
					// prefixes) legally re-encode differently; only flag
					// length mismatches that indicate dropped messages.
					if len(re) == 0 {
						t.Fatalf("decoded %d messages re-encoded to nothing", len(msgs))
					}
				}
			}
		}
	})
}
