package config

import (
	"net/netip"
	"testing"

	"repro/internal/policy"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func sampleModel() Model {
	return Model{
		Experiments: []ExperimentSpec{
			{Name: "exp1", Owner: "alice", ASNs: []uint32{61574},
				Prefixes: []netip.Prefix{pfx("184.164.224.0/23")}, Approved: true},
			{Name: "exp2", Owner: "bob", ASNs: []uint32{61575},
				Prefixes: []netip.Prefix{pfx("184.164.226.0/24")}, Approved: true,
				Caps: policy.Capabilities{MaxPoisonedASNs: 2, MaxCommunities: 4}},
			{Name: "pending", Owner: "carol", Approved: false},
		},
		PoPs: []PoPSpec{{Name: "amsix"}, {Name: "seattle"}},
	}
}

func TestValidateAccepts(t *testing.T) {
	m := sampleModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Model)
	}{
		{"overlapping allocations", func(m *Model) {
			m.Experiments[1].Prefixes = []netip.Prefix{pfx("184.164.224.0/24")}
		}},
		{"approved without allocation", func(m *Model) { m.Experiments[2].Approved = true }},
	}
	for _, c := range cases {
		m := sampleModel()
		c.mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: validation passed", c.name)
		}
	}
}

func TestSyncPolicy(t *testing.T) {
	m := sampleModel()
	en := policy.NewEngine(47065)
	m.SyncPolicy(en)
	if got := en.Experiments(); len(got) != 2 || got[0] != "exp1" || got[1] != "exp2" {
		t.Fatalf("registered = %v", got)
	}
	// Capabilities flow through.
	if en.Experiment("exp2").Caps.MaxPoisonedASNs != 2 {
		t.Error("capabilities lost in sync")
	}
	// De-approving removes, approving new adds; others untouched.
	m.Experiments[0].Approved = false
	m.Experiments[2].Approved = true
	m.Experiments[2].ASNs = []uint32{61576}
	m.Experiments[2].Prefixes = []netip.Prefix{pfx("184.164.228.0/24")}
	m.SyncPolicy(en)
	if got := en.Experiments(); len(got) != 2 || got[0] != "exp2" || got[1] != "pending" {
		t.Fatalf("after resync = %v", got)
	}
}
