package bgp

import (
	"fmt"
	"testing"
	"time"
)

// mraiPair wires a receiver and an MRAI-configured sender.
func mraiPair(t *testing.T, mrai time.Duration, recv chan *Update) (receiver, sender *Session) {
	t.Helper()
	return startPair(t,
		Config{LocalASN: 65001, RemoteASN: 65002, LocalID: ip("10.0.0.1"),
			OnUpdate: func(u *Update) { recv <- keep(u) }},
		Config{LocalASN: 65002, RemoteASN: 65001, LocalID: ip("10.0.0.2"), MRAI: mrai},
	)
}

func mraiAttrs(med uint32) *PathAttrs {
	return &PathAttrs{Origin: OriginIGP, HasOrigin: true,
		ASPath:  []ASPathSegment{{Type: ASSequence, ASNs: []uint32{65002}}},
		NextHop: ip("10.0.0.2"), MED: med, HasMED: true}
}

// drain collects updates until the channel stays quiet for idle.
func drain(recv chan *Update, idle time.Duration) []*Update {
	var got []*Update
	for {
		select {
		case u := <-recv:
			got = append(got, u)
		case <-time.After(idle):
			return got
		}
	}
}

func TestMRAICoalescesBatchAcrossPrefixes(t *testing.T) {
	recv := make(chan *Update, 256)
	_, sb := mraiPair(t, 150*time.Millisecond, recv)

	// 8 prefixes, flapped 3 times each with shared attrs: the first
	// round goes out immediately, the re-advertisements coalesce and the
	// flush delivers them BATCHED — one UPDATE carrying all 8 prefixes,
	// not 8 single-prefix messages.
	attrs := mraiAttrs(7)
	prefixes := make([]NLRI, 8)
	for i := range prefixes {
		prefixes[i] = NLRI{Prefix: pfx(fmt.Sprintf("203.0.%d.0/24", 100+i))}
	}
	for round := 0; round < 3; round++ {
		for _, n := range prefixes {
			if err := sb.Send(&Update{Attrs: attrs, NLRI: []NLRI{n}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := drain(recv, 400*time.Millisecond)
	// 8 immediate singles + 1 coalesced batch.
	if len(got) != 9 {
		t.Fatalf("received %d updates, want 9 (8 immediate + 1 batch)", len(got))
	}
	batch := got[len(got)-1]
	if len(batch.NLRI) != 8 {
		t.Fatalf("coalesced batch carries %d prefixes, want 8", len(batch.NLRI))
	}
	if s := sb.MRAISuppressed.Load(); s != 16 {
		t.Errorf("suppressed = %d, want 16 (two absorbed rounds)", s)
	}
}

func TestMRAIFlushOnClose(t *testing.T) {
	recv := make(chan *Update, 64)
	_, sb := mraiPair(t, time.Hour, recv)

	attrs := mraiAttrs(0)
	n := NLRI{Prefix: pfx("203.0.113.0/24")}
	if err := sb.Send(&Update{Attrs: attrs, NLRI: []NLRI{n}}); err != nil {
		t.Fatal(err)
	}
	newest := mraiAttrs(42)
	if err := sb.Send(&Update{Attrs: newest, NLRI: []NLRI{n}}); err != nil {
		t.Fatal(err)
	}
	// With a one-hour MRAI the re-advertisement is pinned until Close,
	// whose flush-on-close guarantee must deliver the newest version
	// before the Cease goes out.
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	got := drain(recv, 300*time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("received %d updates, want 2 (immediate + flushed-on-close)", len(got))
	}
	if got[1].Attrs.MED != 42 {
		t.Errorf("flushed update MED = %d, want newest version 42", got[1].Attrs.MED)
	}
}

func TestMRAIWithdrawalCancelsPendingAdvert(t *testing.T) {
	recv := make(chan *Update, 64)
	_, sb := mraiPair(t, 150*time.Millisecond, recv)

	n := NLRI{Prefix: pfx("203.0.113.0/24")}
	if err := sb.Send(&Update{Attrs: mraiAttrs(0), NLRI: []NLRI{n}}); err != nil {
		t.Fatal(err)
	}
	if err := sb.Send(&Update{Attrs: mraiAttrs(1), NLRI: []NLRI{n}}); err != nil {
		t.Fatal(err)
	}
	// The withdrawal must go out immediately AND kill the held-back
	// re-advertisement — otherwise the flush would resurrect a route the
	// peer was just told is gone.
	if err := sb.Send(&Update{Withdrawn: []NLRI{n}}); err != nil {
		t.Fatal(err)
	}
	got := drain(recv, 400*time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("received %d updates, want 2 (advert + withdrawal, no resurrection)", len(got))
	}
	if len(got[1].Withdrawn) != 1 {
		t.Fatalf("second update is not the withdrawal: %+v", got[1])
	}
}
