//go:build !race

package bgp

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipe"
)

// TestReceiveAllocs is the receive path's allocation guard: a session
// decodes every UPDATE into the one Update its frame reader lends to
// OnUpdate, so a single-route announcement costs only the attribute set
// it hands over — one allocation, which holds the set together with the
// backings of its AS_PATH and its communities — and a withdrawal costs
// nothing. A real Session reads pre-encoded UPDATEs that the test,
// playing the peer, writes into a pipe. (The race detector instruments
// allocation; the guard is pinned in CI's plain test job.)
func TestReceiveAllocs(t *testing.T) {
	const routes = 512
	local, peer := pipe.New()
	var got, target atomic.Int64
	done := make(chan struct{}, 1)
	established := make(chan struct{})
	s := NewSession(local, Config{
		LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1"),
		OnEstablished: func() { close(established) },
		OnUpdate: func(u *Update) {
			if len(u.NLRI)+len(u.Withdrawn) != 1 {
				t.Errorf("decoded %d routes, want 1", len(u.NLRI)+len(u.Withdrawn))
			}
			if got.Add(1) == target.Load() {
				done <- struct{}{}
			}
		},
	})
	go s.Run()
	t.Cleanup(func() { s.Close() })

	// The peer's side of the handshake. Hold time 0 negotiates no
	// keepalives, so nothing but the UPDATEs below crosses the session.
	opts := &codecOpts{as4: true}
	if _, err := peer.Write(frameStream(t, opts,
		&Open{Version: Version, ASN: 65002, BGPID: ip("10.0.0.2"), Caps: &Capabilities{AS4: 65002}},
		&Keepalive{})); err != nil {
		t.Fatal(err)
	}
	select {
	case <-established:
	case <-time.After(5 * time.Second):
		t.Fatalf("session did not establish: %s", s.State())
	}

	attrs := baseAttrsASN(65002)
	attrs.Communities = []Community{NewCommunity(65002, 1)}
	var announce, withdraw []Message
	for i := 0; i < routes; i++ {
		n := []NLRI{{Prefix: pfx(fmt.Sprintf("10.%d.%d.0/24", i>>8, i&0xff))}}
		announce = append(announce, &Update{Attrs: attrs, NLRI: n})
		withdraw = append(withdraw, &Update{Withdrawn: n})
	}
	blocks := []struct {
		name  string
		bytes []byte
		max   float64
	}{
		{"announcement", frameStream(t, opts, announce...), 1},
		{"withdrawal", frameStream(t, opts, withdraw...), 0},
	}
	deliver := func(block []byte) {
		target.Store(got.Load() + routes)
		if _, err := peer.Write(block); err != nil {
			t.Fatal(err)
		}
		select { // no timer here: it would count against the session
		case <-done:
		case <-s.Done():
			t.Fatalf("session ended after decoding %d of %d UPDATEs: %v", got.Load(), target.Load(), s.Err())
		}
	}
	// Warm-up: the pipe's buffer and the frame reader's lists reach the
	// size these blocks need.
	for _, b := range blocks {
		deliver(b.bytes)
	}
	for _, b := range blocks {
		// Process-wide mallocs over 5×512 UPDATEs: a stray allocation on
		// another goroutine stays far below one per hundred UPDATEs.
		per := testing.AllocsPerRun(5, func() { deliver(b.bytes) }) / routes
		t.Logf("%.2f allocations per received %s", per, b.name)
		if per > b.max+0.01 {
			t.Errorf("%.2f allocations per received %s, want at most %v", per, b.name, b.max)
		}
	}
}
