package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStationStatsAndReport(t *testing.T) {
	reg := NewRegistry()
	st := NewStation(reg)
	st.Handle(Event{Kind: EventPeerUp, Time: time.Unix(10, 0), PoP: "amsix", Peer: "transit1", PeerASN: 1000})
	st.Handle(Event{Kind: EventStatsReport, Time: time.Unix(20, 0), PoP: "amsix", Peer: "transit1",
		Stats: []Stat{{Type: StatRoutesAdjIn, Value: 7}, {Type: StatUpdatesIn, Value: 42}}})
	st.Handle(Event{Kind: EventPeerUp, Time: time.Unix(5, 0), PoP: "seattle", Peer: "peer64", PeerASN: 10000})

	p, ok := st.Peer("amsix", "transit1")
	if !ok {
		t.Fatal("transit1 not tracked")
	}
	if !p.Up || p.Stats[StatRoutesAdjIn] != 7 || p.Stats[StatUpdatesIn] != 42 {
		t.Errorf("peer state = %+v", p)
	}
	if !p.LastSeen.Equal(time.Unix(20, 0)) {
		t.Errorf("LastSeen = %v, want the stats-report time", p.LastSeen)
	}

	peers := st.Peers()
	if len(peers) != 2 || peers[0].PoP != "amsix" || peers[1].PoP != "seattle" {
		t.Fatalf("Peers() = %+v", peers)
	}

	report := st.Report()
	for _, want := range []string{"transit1", "peer64", "1000", "10000", "up", "7"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	if got := reg.Value("telemetry_station_events_total"); got != 3 {
		t.Errorf("telemetry_station_events_total = %g, want 3", got)
	}
	if st.Processed() != 3 {
		t.Errorf("Processed = %d, want 3", st.Processed())
	}
}

// TestStationConcurrentAccess hammers Handle from several writers while
// readers pull Peer/Peers snapshots and mutate them. The accessors
// return deep copies, so writing into a returned Stats map must never
// race the station's own state (run with -race to enforce this) nor
// corrupt what later readers observe.
func TestStationConcurrentAccess(t *testing.T) {
	st := NewStation(NewRegistry())
	pops := []string{"amsix", "seattle", "phoenix"}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				pop := pops[i%len(pops)]
				st.Handle(Event{Kind: EventPeerUp, Time: time.Unix(int64(i), 0), PoP: pop, Peer: "transit", PeerASN: 1000})
				st.Handle(Event{Kind: EventRouteMonitoring, Time: time.Unix(int64(i), 1), PoP: pop, Peer: "transit"})
				st.Handle(Event{Kind: EventStatsReport, Time: time.Unix(int64(i), 2), PoP: pop, Peer: "transit",
					Stats: []Stat{{Type: StatRoutesAdjIn, Value: uint64(i)}}})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if p, ok := st.Peer("amsix", "transit"); ok {
					p.Stats[StatRoutesAdjIn] = 0xdead // must only touch the copy
					p.Announces = 0
				}
				for _, p := range st.Peers() {
					p.Stats[StatUpdatesIn] = 0xbeef
				}
			}
		}()
	}
	wg.Wait()

	for _, p := range st.Peers() {
		if p.Stats[StatRoutesAdjIn] == 0xdead || p.Stats[StatUpdatesIn] == 0xbeef {
			t.Fatalf("reader mutation leaked into station state: %+v", p)
		}
		if p.Announces == 0 {
			t.Errorf("announces for %s zeroed by a reader mutation", p.PoP)
		}
	}
	if got, want := st.Processed(), uint64(4*500*3); got != want {
		t.Errorf("Processed = %d, want %d", got, want)
	}
}

// Peer returns the status of one monitored session.
func (s *Station) Peer(pop, peer string) (PeerStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.peers[peerKey{pop, peer}]
	if !ok {
		return PeerStatus{}, false
	}
	return copyStatus(p), true
}
