// Package ctlplane is the platform's reconciling control plane (paper
// §5): operators submit declarative experiment specs over an HTTP/JSON
// API, a versioned desired-state store records them with per-object
// revisions and optimistic concurrency, and a reconciler loop converges
// the fleet — diffing desired against observed platform state and
// actuating the difference through the same audited experiment-client
// knobs a researcher would use. A watch hub multiplexes telemetry,
// reconciler transitions, and health-ladder changes to any number of
// SSE subscribers over non-blocking bounded queues.
//
// The package is deliberately platform-agnostic: it talks to the world
// through the Actuator interface and a handful of query hooks, so the
// reconciler can be unit-tested against a fake and the peering package
// wires the real thing (peering/ctlplane.go).
package ctlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Community is one BGP community in "asn:value" form, both halves
// 16-bit, the shape the policy engine's capability checks expect.
type Community struct {
	ASN   uint16 `json:"asn"`
	Value uint16 `json:"value"`
}

// String renders the conventional colon form.
func (c Community) String() string { return fmt.Sprintf("%d:%d", c.ASN, c.Value) }

// ParseCommunity parses "asn:value".
func ParseCommunity(s string) (Community, error) {
	var c Community
	if _, err := fmt.Sscanf(s, "%d:%d", &c.ASN, &c.Value); err != nil {
		return Community{}, fmt.Errorf("ctlplane: bad community %q (want asn:value)", s)
	}
	return c, nil
}

// Announcement is one desired routing intent inside a Spec: announce
// Prefix from every PoP in PoPs, shaped by the steering knobs. The
// (Prefix, Version) pair identifies the announcement; distinct versions
// of the same prefix may target different neighbors (ADD-PATH).
type Announcement struct {
	// Prefix to announce; must be within the spec's allocation.
	Prefix string `json:"prefix"`
	// PoPs the announcement originates from. Must be non-empty.
	PoPs []string `json:"pops"`
	// Version is the ADD-PATH identifier (0 = the default version).
	Version uint32 `json:"version,omitempty"`
	// Prepend adds the experiment ASN this many extra times.
	Prepend int `json:"prepend,omitempty"`
	// Poison inserts these ASNs into the path (needs the capability).
	Poison []uint32 `json:"poison,omitempty"`
	// Communities to attach, "asn:value" strings.
	Communities []string `json:"communities,omitempty"`
	// ToNeighbors whitelists export to these neighbor IDs only.
	ToNeighbors []uint32 `json:"to_neighbors,omitempty"`
	// ExceptNeighbors blacklists export to these neighbor IDs.
	ExceptNeighbors []uint32 `json:"except_neighbors,omitempty"`
}

// Overrides are per-experiment pacing knobs layered over the platform
// defaults.
type Overrides struct {
	// MRAI paces the experiment's own UPDATE stream (Go duration
	// string, e.g. "50ms"). Empty inherits the platform default.
	MRAI string `json:"mrai,omitempty"`
	// DampingHalfLife overrides the flap-damping half-life applied to
	// this experiment's announcements (informational in this
	// reproduction: recorded, validated, surfaced in status).
	DampingHalfLife string `json:"damping_half_life,omitempty"`
}

// Spec is one experiment's desired state, the JSON object the API
// accepts. It is the §5 intent model: what to announce from where, not
// how to get there.
type Spec struct {
	// Name identifies the experiment (DNS-label shaped).
	Name string `json:"name"`
	// Owner is the responsible researcher.
	Owner string `json:"owner"`
	// Plan describes goals (free text; the §4.6 review surface).
	Plan string `json:"plan,omitempty"`
	// ASN the experiment originates from.
	ASN uint32 `json:"asn"`
	// Prefixes allocated to the experiment.
	Prefixes []string `json:"prefixes"`
	// Announcements is the desired routing intent.
	Announcements []Announcement `json:"announcements,omitempty"`
	// Overrides are optional pacing knobs.
	Overrides Overrides `json:"overrides,omitempty"`
}

// specNameRE is the accepted shape of experiment names: they appear in
// URLs, tunnel credentials, and audit lines.
var specNameRE = regexp.MustCompile(`^[a-z0-9]([a-z0-9-]{0,61}[a-z0-9])?$`)

// maxSpecBytes bounds an encoded spec; DecodeSpec rejects larger
// bodies before parsing.
const maxSpecBytes = 1 << 20

// maxPrepend bounds AS-path padding per announcement.
const maxPrepend = 16

// DecodeSpec strictly parses a JSON spec: unknown fields are errors
// (catching typo'd knobs that would otherwise silently no-op) and the
// result is validated.
func DecodeSpec(data []byte) (Spec, error) {
	if len(data) > maxSpecBytes {
		return Spec{}, fmt.Errorf("ctlplane: spec exceeds %d bytes", maxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("ctlplane: bad spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("ctlplane: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate checks the spec's internal consistency without touching the
// platform: name shape, allocation parses, is IPv4 and is non-overlapping,
// announcements stay within the allocation, knobs are bounded.
func (s *Spec) Validate() error {
	if !specNameRE.MatchString(s.Name) {
		return fmt.Errorf("ctlplane: bad experiment name %q (want lowercase DNS-label)", s.Name)
	}
	if s.Owner == "" {
		return fmt.Errorf("ctlplane: experiment %s: owner required", s.Name)
	}
	if s.ASN == 0 {
		return fmt.Errorf("ctlplane: experiment %s: asn required", s.Name)
	}
	if len(s.Prefixes) == 0 {
		return fmt.Errorf("ctlplane: experiment %s: at least one prefix required", s.Name)
	}
	alloc := make([]netip.Prefix, 0, len(s.Prefixes))
	for _, raw := range s.Prefixes {
		p, err := netip.ParsePrefix(raw)
		if err != nil {
			return fmt.Errorf("ctlplane: experiment %s: bad prefix %q: %v", s.Name, raw, err)
		}
		if p != p.Masked() {
			return fmt.Errorf("ctlplane: experiment %s: prefix %s has host bits set", s.Name, raw)
		}
		if !p.Addr().Is4() {
			return fmt.Errorf("ctlplane: experiment %s: prefix %s is not IPv4, and the data plane forwards IPv4 only", s.Name, raw)
		}
		for _, q := range alloc {
			if p.Overlaps(q) {
				return fmt.Errorf("ctlplane: experiment %s: prefixes %s and %s overlap", s.Name, p, q)
			}
		}
		alloc = append(alloc, p)
	}
	within := func(p netip.Prefix) bool {
		for _, a := range alloc {
			if a.Bits() <= p.Bits() && a.Contains(p.Addr()) {
				return true
			}
		}
		return false
	}
	seen := make(map[string]bool)
	for i, a := range s.Announcements {
		p, err := netip.ParsePrefix(a.Prefix)
		if err != nil {
			return fmt.Errorf("ctlplane: experiment %s: announcement %d: bad prefix %q: %v", s.Name, i, a.Prefix, err)
		}
		if !within(p) {
			return fmt.Errorf("ctlplane: experiment %s: announcement %s outside allocation", s.Name, p)
		}
		key := fmt.Sprintf("%s/%d", p, a.Version)
		if seen[key] {
			return fmt.Errorf("ctlplane: experiment %s: duplicate announcement %s version %d", s.Name, p, a.Version)
		}
		seen[key] = true
		if len(a.PoPs) == 0 {
			return fmt.Errorf("ctlplane: experiment %s: announcement %s names no PoPs", s.Name, p)
		}
		pops := make(map[string]bool)
		for _, pop := range a.PoPs {
			if pop == "" {
				return fmt.Errorf("ctlplane: experiment %s: announcement %s: empty PoP name", s.Name, p)
			}
			if pops[pop] {
				return fmt.Errorf("ctlplane: experiment %s: announcement %s: duplicate PoP %s", s.Name, p, pop)
			}
			pops[pop] = true
		}
		if a.Prepend < 0 || a.Prepend > maxPrepend {
			return fmt.Errorf("ctlplane: experiment %s: announcement %s: prepend %d outside 0..%d", s.Name, p, a.Prepend, maxPrepend)
		}
		for _, c := range a.Communities {
			if _, err := ParseCommunity(c); err != nil {
				return fmt.Errorf("ctlplane: experiment %s: announcement %s: %v", s.Name, p, err)
			}
		}
		for _, asn := range a.Poison {
			if asn == 0 {
				return fmt.Errorf("ctlplane: experiment %s: announcement %s: poison ASN 0", s.Name, p)
			}
		}
	}
	if _, err := s.Overrides.mrai(); err != nil {
		return err
	}
	if _, err := s.Overrides.dampingHalfLife(); err != nil {
		return err
	}
	return nil
}

// maxOverride bounds pacing overrides to something a reconciler can
// still converge under.
const maxOverride = 5 * time.Minute

func parseOverride(what, raw string) (time.Duration, error) {
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("ctlplane: bad %s override %q: %v", what, raw, err)
	}
	if d < 0 || d > maxOverride {
		return 0, fmt.Errorf("ctlplane: %s override %s outside 0..%s", what, d, maxOverride)
	}
	return d, nil
}

func (o Overrides) mrai() (time.Duration, error) { return parseOverride("mrai", o.MRAI) }

func (o Overrides) dampingHalfLife() (time.Duration, error) {
	return parseOverride("damping_half_life", o.DampingHalfLife)
}

// ParsedMRAI returns the parsed MRAI override (zero when unset). Call
// only on validated specs.
func (o Overrides) ParsedMRAI() time.Duration { d, _ := o.mrai(); return d }

// Clone deep-copies the spec so stored objects never alias caller
// slices.
func (s Spec) Clone() Spec {
	out := s
	out.Prefixes = append([]string(nil), s.Prefixes...)
	out.Announcements = make([]Announcement, len(s.Announcements))
	for i, a := range s.Announcements {
		b := a
		b.PoPs = append([]string(nil), a.PoPs...)
		b.Poison = append([]uint32(nil), a.Poison...)
		b.Communities = append([]string(nil), a.Communities...)
		b.ToNeighbors = append([]uint32(nil), a.ToNeighbors...)
		b.ExceptNeighbors = append([]uint32(nil), a.ExceptNeighbors...)
		out.Announcements[i] = b
	}
	return out
}

// Equal reports whether two specs describe identical desired state
// (the no-op test for idempotent re-POSTs).
func (s Spec) Equal(t Spec) bool {
	a, _ := json.Marshal(s)
	b, _ := json.Marshal(t)
	return bytes.Equal(a, b)
}

// AnnKey identifies one actuated announcement platform-wide.
type AnnKey struct {
	Experiment string
	PoP        string
	Prefix     netip.Prefix
	Version    uint32
}

// String renders the key for logs and stream events.
func (k AnnKey) String() string {
	return fmt.Sprintf("%s@%s:%s/v%d", k.Experiment, k.PoP, k.Prefix, k.Version)
}

// SessKey identifies one experiment BGP session.
type SessKey struct {
	Experiment string
	PoP        string
}

// CompiledAnn is one (PoP, Prefix, Version) atom expanded from a
// validated spec, with parsed knobs — what the actuator announces.
type CompiledAnn struct {
	Key AnnKey
	// Fingerprint is a stable digest of the knobs below: the reconciler
	// re-announces when the desired fingerprint differs from the actuated
	// one, and the WAL's actuation records hold it.
	Fingerprint     string
	Prepend         int
	Poison          []uint32
	Communities     []Community
	ToNeighbors     []uint32
	ExceptNeighbors []uint32
}

// fingerprint renders the knob digest, each list sorted:
// "prepend=1 poison=[64512] to=[] except=[] comms=[47065:1]". Recovered
// WALs hold fingerprints in this form, so it must not change.
func (a CompiledAnn) fingerprint() string {
	b := append(make([]byte, 0, 64), "prepend="...)
	b = strconv.AppendInt(b, int64(a.Prepend), 10)
	for i, v := range [][]uint32{a.Poison, a.ToNeighbors, a.ExceptNeighbors} {
		b = append(b, [...]string{" poison=[", " to=[", " except=["}[i]...)
		v = slices.Clone(v)
		slices.Sort(v)
		for j, x := range v {
			if j > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendUint(b, uint64(x), 10)
		}
		b = append(b, ']')
	}
	comms := make([]string, len(a.Communities))
	for i, c := range a.Communities {
		comms[i] = c.String()
	}
	slices.Sort(comms)
	b = append(append(b, " comms=["...), strings.Join(comms, " ")...)
	return string(append(b, ']'))
}

// compile is Compile returning an error where an unvalidated spec — a
// damaged WAL record — has an unparsable prefix or community.
func (s Spec) compile() ([]CompiledAnn, error) {
	n := 0
	for _, a := range s.Announcements {
		n += len(a.PoPs)
	}
	out := make([]CompiledAnn, 0, n)
	for _, a := range s.Announcements {
		prefix, err := netip.ParsePrefix(a.Prefix)
		if err != nil {
			return nil, fmt.Errorf("ctlplane: experiment %s: bad announcement prefix %q: %v", s.Name, a.Prefix, err)
		}
		var comms []Community
		for _, raw := range a.Communities {
			c, err := ParseCommunity(raw)
			if err != nil {
				return nil, err
			}
			comms = append(comms, c)
		}
		for _, pop := range a.PoPs {
			ann := CompiledAnn{
				Key:             AnnKey{Experiment: s.Name, PoP: pop, Prefix: prefix, Version: a.Version},
				Prepend:         a.Prepend,
				Poison:          slices.Clone(a.Poison),
				Communities:     comms,
				ToNeighbors:     slices.Clone(a.ToNeighbors),
				ExceptNeighbors: slices.Clone(a.ExceptNeighbors),
			}
			ann.Fingerprint = ann.fingerprint()
			out = append(out, ann)
		}
	}
	slices.SortFunc(out, func(x, y CompiledAnn) int { return strings.Compare(x.Key.String(), y.Key.String()) })
	return out, nil
}

// SessionPoPs returns the sorted set of PoPs the spec needs a session
// at (every PoP referenced by any announcement).
func (s Spec) SessionPoPs() []string {
	var out []string
	for _, a := range s.Announcements {
		out = append(out, a.PoPs...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
