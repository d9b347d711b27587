// Package config implements Peering's intent-based configuration model
// (§5): a central desired-state model naming the approved experiments and
// the PoPs a revision deploys to, its validation, and the generator that
// turns it into enforcement engine registrations. The model's versioned
// store — revisions, canary deployment, rollback — is internal/ctlplane's
// Store, which derives a Model per revision on demand.
package config

import (
	"fmt"
	"net/netip"
	"sort"

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
}

// PoPSpec is one point of presence.
type PoPSpec struct {
	Name string
}

// Model is the central desired-state database content.
type Model struct {
	Experiments []ExperimentSpec
	PoPs        []PoPSpec
}

// Validate checks platform-wide invariants: approved experiments have
// allocations, and no two of them overlap.
func (m *Model) Validate() error {
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
