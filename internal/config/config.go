// Package config implements Peering's intent-based configuration
// pipeline (§5): a central desired-state model describing experiments,
// PoPs, and interconnections; validation; and generators that transform
// the model into per-service configurations (routing-engine config
// text, enforcement engine registrations, VPN credentials, and
// network-controller intents). The model's versioned store — revisions,
// canary deployment, rollback — is internal/ctlplane's Store, which
// derives a Model per revision on demand.
package config

import (
	"fmt"
	"net/netip"
	"sort"

	"repro/internal/netctl"
	"repro/internal/policy"
)

// ExperimentSpec is one approved experiment in the model.
type ExperimentSpec struct {
	// Name identifies the experiment.
	Name string
	// Owner is the responsible researcher (attribution).
	Owner string
	// ASNs the experiment may originate from.
	ASNs []uint32
	// Prefixes allocated to the experiment.
	Prefixes []netip.Prefix
	// Caps is the granted capability set (§4.7).
	Caps policy.Capabilities
	// Approved gates activation; unapproved experiments generate no
	// configuration.
	Approved bool
	// VPNKey is the tunnel credential issued on approval.
	VPNKey string
}

// IfaceSpec is one router interface.
type IfaceSpec struct {
	Name string
	// Role is "experiment", "backbone", or "neighbor".
	Role string
	// Addr is the interface address with prefix.
	Addr netip.Prefix
}

// NeighborSpec is one interconnection at a PoP.
type NeighborSpec struct {
	Name string
	// ID is the platform-wide neighbor identifier (1..9999).
	ID uint32
	// ASN of the neighbor.
	ASN uint32
	// Addr on the shared segment.
	Addr netip.Addr
	// Interface names the PoP interface the neighbor is on.
	Interface string
	// RouteServer marks transparent route-server sessions.
	RouteServer bool
	// Transit marks transit interconnections (vs peering).
	Transit bool
}

// PoPSpec is one point of presence.
type PoPSpec struct {
	Name     string
	RouterID netip.Addr
	// LocalPool is the PoP's next-hop pool for experiments.
	LocalPool netip.Prefix
	// BandwidthLimitBps shapes experiment traffic at
	// bandwidth-constrained sites (two sites in the paper); 0 = none.
	BandwidthLimitBps float64
	Interfaces        []IfaceSpec
	Neighbors         []NeighborSpec
}

// Model is the central desired-state database content.
type Model struct {
	PlatformASN uint32
	GlobalPool  netip.Prefix
	Experiments []ExperimentSpec
	PoPs        []PoPSpec
}

// Validate checks platform-wide invariants: nonzero 16-bit-safe unique
// neighbor IDs, non-overlapping experiment allocations, approved
// experiments with allocations, interface references.
func (m *Model) Validate() error {
	ids := make(map[uint32]string)
	for _, pop := range m.PoPs {
		ifaces := make(map[string]bool)
		for _, ifc := range pop.Interfaces {
			if ifaces[ifc.Name] {
				return fmt.Errorf("config: pop %s: duplicate interface %s", pop.Name, ifc.Name)
			}
			ifaces[ifc.Name] = true
		}
		for _, n := range pop.Neighbors {
			if n.ID == 0 || n.ID > 9999 {
				return fmt.Errorf("config: pop %s neighbor %s: ID %d outside 1..9999", pop.Name, n.Name, n.ID)
			}
			if prev, dup := ids[n.ID]; dup {
				return fmt.Errorf("config: neighbor ID %d reused by %s and %s/%s", n.ID, prev, pop.Name, n.Name)
			}
			ids[n.ID] = pop.Name + "/" + n.Name
			if !ifaces[n.Interface] {
				return fmt.Errorf("config: pop %s neighbor %s: unknown interface %s", pop.Name, n.Name, n.Interface)
			}
		}
	}
	for i, e := range m.Experiments {
		if !e.Approved {
			continue
		}
		if len(e.Prefixes) == 0 || len(e.ASNs) == 0 {
			return fmt.Errorf("config: experiment %s approved without allocation", e.Name)
		}
		for _, p := range e.Prefixes {
			for _, other := range m.Experiments[:i] {
				if !other.Approved {
					continue
				}
				for _, q := range other.Prefixes {
					if p.Overlaps(q) {
						return fmt.Errorf("config: experiments %s and %s have overlapping prefixes %s/%s",
							e.Name, other.Name, p, q)
					}
				}
			}
		}
	}
	return nil
}

// PoP returns the named PoP spec, or nil.
func (m *Model) PoP(name string) *PoPSpec {
	for i := range m.PoPs {
		if m.PoPs[i].Name == name {
			return &m.PoPs[i]
		}
	}
	return nil
}

// ApprovedExperiments returns the active experiments sorted by name.
func (m *Model) ApprovedExperiments() []ExperimentSpec {
	var out []ExperimentSpec
	for _, e := range m.Experiments {
		if e.Approved {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SyncPolicy reconciles an enforcement engine with the model: approved
// experiments are registered, everything else unregistered — without
// disturbing unrelated state (rate-limit history survives).
func (m *Model) SyncPolicy(en *policy.Engine) {
	want := make(map[string]bool)
	for _, e := range m.ApprovedExperiments() {
		want[e.Name] = true
		en.Register(&policy.Experiment{
			Name:     e.Name,
			Prefixes: e.Prefixes,
			ASNs:     e.ASNs,
			Caps:     e.Caps,
		})
	}
	for _, name := range en.Experiments() {
		if !want[name] {
			en.Unregister(name)
		}
	}
}

// NetworkIntent derives the network-controller intent for a PoP.
func (m *Model) NetworkIntent(pop string) (netctl.Intent, error) {
	p := m.PoP(pop)
	if p == nil {
		return netctl.Intent{}, fmt.Errorf("config: unknown pop %s", pop)
	}
	intent := netctl.Intent{Ifaces: make(map[string]netctl.IfaceIntent)}
	for _, ifc := range p.Interfaces {
		intent.Ifaces[ifc.Name] = netctl.IfaceIntent{
			Addrs: []netip.Addr{ifc.Addr.Addr()},
		}
	}
	return intent, nil
}
