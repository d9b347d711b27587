// Package traffic models bulk TCP transfers over capacity-constrained
// paths with a deterministic fluid-flow simulation: each flow maintains
// an AIMD congestion window, links apportion capacity among the flows
// crossing them, and congestion causes multiplicative decrease.
//
// The paper measures backbone TCP throughput with iperf3 between PoP
// pairs (§6: average ≈400 Mbps, min 60, max 750). Moving gigabits of
// real bytes through the in-memory data plane would measure the host
// CPU, not the provisioned capacities, so the throughput experiment runs
// on this model instead, parameterized by the same per-link capacity and
// latency metadata the netsim segments carry.
package traffic

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Link is a capacity-constrained hop.
type Link struct {
	// Name identifies the link in reports.
	Name string
	// CapacityBps is the link capacity in bits per second.
	CapacityBps float64
	// Latency is the one-way propagation delay.
	Latency time.Duration
}

// Flow is one bulk transfer.
type Flow struct {
	// Name identifies the flow in reports.
	Name string
	// Path is the sequence of links the flow crosses.
	Path []Link

	cwnd     float64 // congestion window, bytes
	ssthresh float64
	rtt      time.Duration
	// delivered accumulates bytes over the measured interval.
	delivered float64
}

// MSS is the segment size used by the window model.
const MSS = 1460

// RTT returns the flow's round-trip time (twice the path latency).
func (f *Flow) RTT() time.Duration {
	var oneWay time.Duration
	for _, l := range f.Path {
		oneWay += l.Latency
	}
	if oneWay == 0 {
		oneWay = time.Millisecond
	}
	return 2 * oneWay
}

// ThroughputBps returns the goodput measured by the last Sim.Run.
func (f *Flow) ThroughputBps(measured time.Duration) float64 {
	if measured <= 0 {
		return 0
	}
	return f.delivered * 8 / measured.Seconds()
}

// Sim simulates a set of concurrent flows.
type Sim struct {
	flows []*Flow
	// Step is the simulation quantum. Defaults to 10ms.
	Step time.Duration
}

// NewSim creates an empty simulation.
func NewSim() *Sim { return &Sim{Step: 10 * time.Millisecond} }

// AddFlow registers a flow over path.
func (s *Sim) AddFlow(name string, path []Link) (*Flow, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("traffic: flow %s has an empty path", name)
	}
	for _, l := range path {
		if l.CapacityBps <= 0 {
			return nil, fmt.Errorf("traffic: flow %s (%s -> %s) crosses uncapacitated link %s",
				name, path[0].Name, path[len(path)-1].Name, l.Name)
		}
	}
	f := &Flow{Name: name, Path: path}
	f.rtt = f.RTT()
	f.cwnd = 10 * MSS // RFC 6928 initial window
	f.ssthresh = math.Inf(1)
	s.flows = append(s.flows, f)
	return f, nil
}

// Run advances the simulation by d of virtual time and returns the
// measured interval (the full d). Throughput is read per flow with
// ThroughputBps(d). Run may be called repeatedly; delivered counters
// reset at each call so a warmup Run can be discarded.
func (s *Sim) Run(d time.Duration) time.Duration {
	for _, f := range s.flows {
		f.delivered = 0
	}
	steps := int(d / s.Step)
	dt := s.Step.Seconds()
	for i := 0; i < steps; i++ {
		// Offered rate per flow this step: cwnd per RTT.
		offered := make([]float64, len(s.flows)) // bytes/sec
		for j, f := range s.flows {
			offered[j] = f.cwnd / f.rtt.Seconds()
		}
		// Apportion each link's capacity among its flows by per-link
		// water-filling: flows below the link's fair share keep their
		// rate, the rest split what remains equally. Only flows actually
		// clamped see a congestion signal, so a flow bottlenecked
		// elsewhere does not back off here — this is what makes the
		// steady state max-min fair across shared bottlenecks. Links are
		// visited in sorted-name order so allocation is deterministic.
		achieved := make([]float64, len(s.flows))
		copy(achieved, offered)
		congested := make([]bool, len(s.flows))
		byLink := make(map[string][]int)
		linkCap := make(map[string]float64)
		for j, f := range s.flows {
			for _, l := range f.Path {
				byLink[l.Name] = append(byLink[l.Name], j)
				linkCap[l.Name] = l.CapacityBps / 8 // bytes/sec
			}
		}
		linkNames := make([]string, 0, len(byLink))
		for name := range byLink {
			linkNames = append(linkNames, name)
		}
		sort.Strings(linkNames)
		// Two sweeps: clamping at one link can lower a flow's rate at a
		// link visited earlier, freeing share for that link's other
		// flows; rates only ever decrease, so this converges fast.
		for pass := 0; pass < 2; pass++ {
			for _, name := range linkNames {
				idxs := byLink[name]
				var sum float64
				for _, j := range idxs {
					sum += achieved[j]
				}
				c := linkCap[name]
				if sum <= c {
					continue
				}
				// Water-fill: process flows in ascending rate order;
				// each takes min(rate, remaining/flows-left).
				order := append([]int(nil), idxs...)
				sort.Slice(order, func(a, b int) bool { return achieved[order[a]] < achieved[order[b]] })
				remaining := c
				for k, j := range order {
					share := remaining / float64(len(order)-k)
					if achieved[j] > share {
						achieved[j] = share
						congested[j] = true
					}
					remaining -= achieved[j]
				}
			}
		}
		// Deliver and adjust windows.
		for j, f := range s.flows {
			f.delivered += achieved[j] * dt
			rttsPerStep := dt / f.rtt.Seconds()
			if congested[j] {
				// Multiplicative decrease, at most once per RTT.
				if rttsPerStep > 1 {
					rttsPerStep = 1
				}
				f.ssthresh = f.cwnd / 2
				f.cwnd = math.Max(f.cwnd/2, 2*MSS)
			} else if f.cwnd < f.ssthresh {
				// Slow start: double per RTT.
				f.cwnd *= math.Pow(2, rttsPerStep)
				if f.cwnd > f.ssthresh {
					f.cwnd = f.ssthresh
				}
			} else {
				// Congestion avoidance: +1 MSS per RTT.
				f.cwnd += MSS * rttsPerStep
			}
		}
	}
	return d
}

// MeasureSingleFlow is a convenience harness: it runs one flow over path
// with a warmup and returns steady-state throughput in bits per second.
func MeasureSingleFlow(path []Link) (float64, error) {
	s := NewSim()
	f, err := s.AddFlow("probe", path)
	if err != nil {
		return 0, err
	}
	s.Run(2 * time.Second)      // warmup: exit slow start
	d := s.Run(8 * time.Second) // measured interval
	return f.ThroughputBps(d), nil
}
