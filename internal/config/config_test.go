package config

import (
	"net/netip"
	"testing"

	"repro/internal/policy"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func a(s string) netip.Addr     { return netip.MustParseAddr(s) }

func sampleModel() Model {
	return Model{
		PlatformASN: 47065,
		GlobalPool:  pfx("127.127.0.0/16"),
		Experiments: []ExperimentSpec{
			{Name: "exp1", Owner: "alice", ASNs: []uint32{61574},
				Prefixes: []netip.Prefix{pfx("184.164.224.0/23")}, Approved: true, VPNKey: "k1"},
			{Name: "exp2", Owner: "bob", ASNs: []uint32{61575},
				Prefixes: []netip.Prefix{pfx("184.164.226.0/24")}, Approved: true, VPNKey: "k2",
				Caps: policy.Capabilities{MaxPoisonedASNs: 2, MaxCommunities: 4}},
			{Name: "pending", Owner: "carol", Approved: false},
		},
		PoPs: []PoPSpec{
			{
				Name: "amsix", RouterID: a("198.51.100.1"), LocalPool: pfx("127.65.0.0/16"),
				Interfaces: []IfaceSpec{
					{Name: "ix0", Role: "neighbor", Addr: pfx("80.249.208.254/21")},
					{Name: "exp0", Role: "experiment", Addr: pfx("100.65.0.254/24")},
					{Name: "bb0", Role: "backbone", Addr: pfx("100.127.0.1/24")},
				},
				Neighbors: []NeighborSpec{
					{Name: "rs1", ID: 1, ASN: 64700, Addr: a("80.249.208.250"), Interface: "ix0", RouteServer: true},
					{Name: "transit1", ID: 2, ASN: 3356, Addr: a("80.249.208.1"), Interface: "ix0", Transit: true},
				},
			},
			{
				Name: "seattle", RouterID: a("198.51.100.2"), LocalPool: pfx("127.66.0.0/16"),
				BandwidthLimitBps: 100e6,
				Interfaces: []IfaceSpec{
					{Name: "ix0", Role: "neighbor", Addr: pfx("206.81.80.254/23")},
					{Name: "exp0", Role: "experiment", Addr: pfx("100.66.0.254/24")},
				},
				Neighbors: []NeighborSpec{
					{Name: "rs1", ID: 10, ASN: 64701, Addr: a("206.81.80.250"), Interface: "ix0", RouteServer: true},
				},
			},
		},
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
		{"duplicate neighbor ID", func(m *Model) { m.PoPs[1].Neighbors[0].ID = 1 }},
		{"zero neighbor ID", func(m *Model) { m.PoPs[0].Neighbors[0].ID = 0 }},
		{"ID too large", func(m *Model) { m.PoPs[0].Neighbors[0].ID = 10000 }},
		{"unknown interface", func(m *Model) { m.PoPs[0].Neighbors[0].Interface = "ghost" }},
		{"duplicate interface", func(m *Model) {
			m.PoPs[0].Interfaces = append(m.PoPs[0].Interfaces, m.PoPs[0].Interfaces[0])
		}},
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
	en := policy.NewEngine(m.PlatformASN)
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

func TestNetworkIntent(t *testing.T) {
	m := sampleModel()
	intent, err := m.NetworkIntent("amsix")
	if err != nil {
		t.Fatal(err)
	}
	if len(intent.Ifaces) != 3 {
		t.Errorf("interfaces = %d", len(intent.Ifaces))
	}
	if got := intent.Ifaces["ix0"].Addrs[0]; got != a("80.249.208.254") {
		t.Errorf("ix0 addr = %s", got)
	}
	if _, err := m.NetworkIntent("nope"); err == nil {
		t.Error("unknown pop accepted")
	}
}
