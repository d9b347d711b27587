package peering

import (
	"fmt"
	"net/netip"
	"sort"

	"repro/internal/policy"
)

// ProposalStatus is the review state of an experiment proposal.
type ProposalStatus int

// Proposal states.
const (
	StatusPending ProposalStatus = iota
	StatusApproved
)

// String names the status.
func (s ProposalStatus) String() string {
	return [...]string{"pending", "approved"}[s]
}

// Proposal is an experiment application, the web-form equivalent of
// §4.6: goals, resource requirements, and execution plan, reviewed
// manually before any resources are granted.
type Proposal struct {
	// Name of the experiment.
	Name string
	// Owner is the responsible researcher.
	Owner string
	// Plan describes goals and execution (free text, reviewed by
	// admins).
	Plan string
	// Prefixes requested.
	Prefixes []netip.Prefix
	// ASNs requested.
	ASNs []uint32
	// Caps requested (granted verbatim or trimmed on approval).
	Caps policy.Capabilities

	Status ProposalStatus
	// VPNKey is the tunnel credential issued on approval.
	VPNKey string
	// Managed marks a proposal owned by the declarative control plane:
	// its platform state (sessions, installed routes) is observed and
	// reconciled — including orphan teardown after a crash — while
	// unmanaged proposals (REPL, TE controller, tests) are left alone.
	Managed bool
}

// Submit files a proposal for review.
func (p *Platform) Submit(prop Proposal) error {
	if prop.Name == "" || prop.Owner == "" || prop.Plan == "" {
		return fmt.Errorf("peering: proposal needs a name, owner, and plan")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.proposals[prop.Name]; dup {
		return fmt.Errorf("peering: proposal %s already exists", prop.Name)
	}
	prop.Status = StatusPending
	p.proposals[prop.Name] = &prop
	p.proposalSeq++
	return nil
}

// Proposals lists proposals sorted by name.
func (p *Platform) Proposals() []*Proposal {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Proposal, 0, len(p.proposals))
	for _, prop := range p.proposals {
		out = append(out, prop)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Approve grants a pending proposal, optionally overriding the granted
// capability set (admins trim risky requests, §7.3), registers the
// experiment with the enforcement engine, and issues tunnel credentials.
// Running experiments and BGP sessions are not disturbed (§4.6).
func (p *Platform) Approve(name string, grantedCaps *policy.Capabilities) (vpnKey string, err error) {
	p.mu.Lock()
	prop := p.proposals[name]
	if prop == nil {
		p.mu.Unlock()
		return "", fmt.Errorf("peering: no proposal %s", name)
	}
	if len(prop.Prefixes) == 0 || len(prop.ASNs) == 0 {
		p.mu.Unlock()
		return "", fmt.Errorf("peering: proposal %s has no resource request", name)
	}
	caps := prop.Caps
	if grantedCaps != nil {
		caps = *grantedCaps
	}
	prop.Status = StatusApproved
	p.keySeq++
	prop.VPNKey = fmt.Sprintf("key-%s-%06d", name, p.keySeq)
	prop.Caps = caps
	p.creds[name] = prop.VPNKey
	p.mu.Unlock()

	p.Engine.Register(&policy.Experiment{
		Name:     name,
		Prefixes: prop.Prefixes,
		ASNs:     prop.ASNs,
		Caps:     caps,
	})
	return prop.VPNKey, nil
}

// Forget erases a proposal entirely, releasing its name for
// resubmission: credentials are withdrawn, the enforcement registration
// dropped, and the proposal record itself removed. The control plane
// uses it after teardown so a deleted experiment's name can be
// recreated.
func (p *Platform) Forget(name string) {
	p.mu.Lock()
	if _, ok := p.proposals[name]; ok {
		delete(p.proposals, name)
		p.proposalSeq++
	}
	delete(p.creds, name)
	p.mu.Unlock()
	p.Engine.Unregister(name)
}
