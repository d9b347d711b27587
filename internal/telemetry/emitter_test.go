package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestEmitterFloodDoesNotBlock is the bounded-queue overflow test:
// many producers flood a small queue with no consumer. Every Emit must
// return promptly (the producers finish), and accepted + dropped must
// account for every event, with dropped mirrored into
// telemetry_events_dropped_total.
func TestEmitterFloodDoesNotBlock(t *testing.T) {
	reg := NewRegistry()
	const capacity = 16
	em := NewEmitter(reg, capacity)

	const producers = 8
	const perProducer = 5000
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perProducer; j++ {
				em.Emit(Event{Kind: EventRouteMonitoring, Peer: "flood"})
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("producers blocked: Emit is not non-blocking under flood")
	}

	total := em.Accepted() + em.Dropped()
	if want := uint64(producers * perProducer); total != want {
		t.Errorf("accepted(%d) + dropped(%d) = %d, want %d", em.Accepted(), em.Dropped(), total, want)
	}
	if em.Accepted() > uint64(capacity) {
		t.Errorf("accepted %d events into a capacity-%d queue with no consumer", em.Accepted(), capacity)
	}
	if em.Dropped() == 0 {
		t.Error("flood of a tiny queue dropped nothing")
	}
	if got := uint64(reg.Value("telemetry_events_dropped_total")); got != em.Dropped() {
		t.Errorf("telemetry_events_dropped_total = %d, want %d", got, em.Dropped())
	}
	if got := uint64(reg.Value("telemetry_events_total")); got != em.Accepted() {
		t.Errorf("telemetry_events_total = %d, want %d", got, em.Accepted())
	}
}

// TestEmitterCloseRace: Emit concurrent with Close must never panic
// (send on closed channel) and post-close emits must count as drops.
func TestEmitterCloseRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		em := NewEmitter(NewRegistry(), 4)
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 100; j++ {
					em.Emit(Event{Kind: EventPeerUp})
				}
			}()
		}
		em.Close()
		wg.Wait()
		if em.Emit(Event{Kind: EventPeerUp}) {
			t.Fatal("Emit accepted an event after Close")
		}
	}
}

func TestEmitterDeliversInOrder(t *testing.T) {
	em := NewEmitter(NewRegistry(), 64)
	sent := []Event{
		{Kind: EventPeerUp, PoP: "amsix", Peer: "transit1", PeerASN: 1000},
		{Kind: EventRouteMonitoring, PoP: "amsix", Peer: "transit1"},
		{Kind: EventRouteMonitoring, PoP: "amsix", Peer: "transit1", Withdraw: true},
		{Kind: EventPeerDown, PoP: "amsix", Peer: "transit1", Reason: "test"},
	}
	for _, e := range sent {
		if !em.Emit(e) {
			t.Fatalf("Emit dropped %v on an empty queue", e)
		}
	}
	em.Close()

	var got []Event
	for e := range em.Events() {
		got = append(got, e)
	}
	if len(got) != len(sent) {
		t.Fatalf("consumer saw %d events, want %d", len(got), len(sent))
	}
	for i := range sent {
		if got[i].Kind != sent[i].Kind || got[i].Withdraw != sent[i].Withdraw || got[i].Reason != sent[i].Reason {
			t.Errorf("event %d = %v, want %v", i, got[i], sent[i])
		}
	}
	if em.Accepted() != 4 || em.Dropped() != 0 {
		t.Errorf("accepted %d dropped %d, want 4/0", em.Accepted(), em.Dropped())
	}
}
