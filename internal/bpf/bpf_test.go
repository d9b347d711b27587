package bpf

import (
	"net/netip"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/telemetry"
)

func frame(t *testing.T, typ ethernet.EtherType, payload []byte) []byte {
	t.Helper()
	f := ethernet.Frame{
		Dst: ethernet.MAC{1}, Src: ethernet.MAC{2}, Type: typ, Payload: payload,
	}
	return f.Marshal()
}

func ipv4Frame(t *testing.T, src, dst string) []byte {
	t.Helper()
	ip := ethernet.IPv4{TTL: 64, Protocol: ethernet.ProtoUDP,
		Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr(dst)}
	return frame(t, ethernet.TypeIPv4, ip.Marshal())
}

func ipv6Frame(t *testing.T, src, dst string) []byte {
	t.Helper()
	ip := ethernet.IPv6{HopLimit: 64, NextHeader: ethernet.ProtoUDP,
		Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr(dst)}
	return frame(t, ethernet.TypeIPv6, ip.Marshal())
}

func TestVerifierRejects(t *testing.T) {
	cases := []struct {
		name  string
		insns []Insn
		maps  int
	}{
		{"empty", nil, 0},
		{"no exit", []Insn{{Op: OpMovImm, Dst: R0, Imm: 2}}, 0},
		{"backward jump", []Insn{
			{Op: OpMovImm, Dst: R0, Imm: 2},
			{Op: OpJmp, Off: -1},
			{Op: OpExit},
		}, 0},
		{"jump out of bounds", []Insn{
			{Op: OpJEqImm, Dst: R0, Off: 10},
			{Op: OpExit},
		}, 0},
		{"bad register", []Insn{
			{Op: OpMovImm, Dst: 12, Imm: 0},
			{Op: OpExit},
		}, 0},
		{"map helper without maps", []Insn{
			{Op: OpCall, Imm: HelperMapLookup},
			{Op: OpExit},
		}, 0},
		{"unknown helper", []Insn{
			{Op: OpCall, Imm: 99},
			{Op: OpExit},
		}, 0},
		{"falls off end", []Insn{
			{Op: OpExit},
			{Op: OpMovImm, Dst: R0, Imm: 2},
		}, 0},
		{"static map index out of range", []Insn{
			{Op: OpMovImm, Dst: R1, Imm: 5},
			{Op: OpCall, Imm: HelperMapLookup},
			{Op: OpExit},
		}, 1},
	}
	for _, c := range cases {
		maps := make([]Map, c.maps)
		for i := range maps {
			maps[i] = NewArrayMap(1)
		}
		if _, err := Load(c.name, c.insns, maps); err == nil {
			t.Errorf("%s: verifier accepted invalid program", c.name)
		}
	}
}

func TestVerifierProgramTooLong(t *testing.T) {
	insns := make([]Insn, MaxInsns+1)
	for i := range insns {
		insns[i] = Insn{Op: OpMovImm, Dst: R0, Imm: 2}
	}
	insns[len(insns)-1] = Insn{Op: OpExit}
	if err := Verify(insns, 0); err == nil {
		t.Error("oversized program accepted")
	}
}

func TestRunSimplePass(t *testing.T) {
	p, err := Load("pass", []Insn{
		{Op: OpMovImm, Dst: R0, Imm: uint64(VerdictPass)},
		{Op: OpExit},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Run([]byte{1, 2, 3}); v != VerdictPass {
		t.Errorf("verdict %v", v)
	}
}

func TestRunOutOfBoundsLoadAborts(t *testing.T) {
	p, err := Load("oob", []Insn{
		{Op: OpMovImm, Dst: R1, Imm: 0},
		{Op: OpLdW, Dst: R0, Src: R1, Off: 100},
		{Op: OpExit},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	aborted := verdictCount("oob", "aborted")
	if v := p.Run([]byte{1, 2, 3}); v != VerdictAborted {
		t.Errorf("verdict %v, want aborted", v)
	}
	if got := verdictCount("oob", "aborted") - aborted; got != 1 {
		t.Errorf("bpf_verdicts_total{verdict=aborted} moved by %d, want 1", got)
	}
}

func TestRunALUOps(t *testing.T) {
	// Compute ((5+3-2)<<4>>2)|1&0xff == 0x19 and exit with it.
	p, err := Load("alu", []Insn{
		{Op: OpMovImm, Dst: R2, Imm: 5},
		{Op: OpAddImm, Dst: R2, Imm: 3},
		{Op: OpMovImm, Dst: R3, Imm: 2},
		{Op: OpSub, Dst: R2, Src: R3},
		{Op: OpLsh, Dst: R2, Imm: 4},
		{Op: OpRsh, Dst: R2, Imm: 2},
		{Op: OpOrImm, Dst: R2, Imm: 1},
		{Op: OpAndImm, Dst: R2, Imm: 0xff},
		{Op: OpMov, Dst: R0, Src: R2},
		{Op: OpExit},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Run(nil); uint64(v) != 0x19 {
		t.Errorf("ALU result %#x, want 0x19", uint64(v))
	}
}

func TestPacketCounter(t *testing.T) {
	counts := NewArrayMap(1)
	p, err := PacketCounter("counter", counts)
	if err != nil {
		t.Fatal(err)
	}
	pkt := ipv4Frame(t, "10.0.0.1", "10.0.0.2")
	for i := 0; i < 7; i++ {
		if v := p.Run(pkt); v != VerdictPass {
			t.Fatalf("run %d verdict %v", i, v)
		}
	}
	if got, _ := counts.Lookup(0); got != 7 {
		t.Errorf("count = %d, want 7", got)
	}
}

func TestSourceIPFilterIPv4(t *testing.T) {
	p, err := SourceIPFilter("antispoof", []netip.Prefix{
		netip.MustParsePrefix("184.164.224.0/23"),
		netip.MustParsePrefix("10.5.0.0/16"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		src  string
		want Verdict
	}{
		{"184.164.224.1", VerdictPass},
		{"184.164.225.255", VerdictPass},
		{"184.164.226.1", VerdictDrop}, // outside the /23
		{"10.5.9.9", VerdictPass},
		{"10.6.0.1", VerdictDrop},
		{"8.8.8.8", VerdictDrop}, // spoofed
	}
	for _, c := range cases {
		if v := p.Run(ipv4Frame(t, c.src, "192.0.2.1")); v != c.want {
			t.Errorf("src %s: verdict %v, want %v", c.src, v, c.want)
		}
	}
}

func TestSourceIPFilterIPv6(t *testing.T) {
	p, err := SourceIPFilter("antispoof6", []netip.Prefix{
		netip.MustParsePrefix("2804:269c::/32"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Run(ipv6Frame(t, "2804:269c::1", "2001:db8::1")); v != VerdictPass {
		t.Errorf("allowed v6 source dropped: %v", v)
	}
	if v := p.Run(ipv6Frame(t, "2804:269d::1", "2001:db8::1")); v != VerdictDrop {
		t.Errorf("spoofed v6 source passed: %v", v)
	}
}

func TestSourceIPFilterPassesARP(t *testing.T) {
	p, err := SourceIPFilter("antispoof", []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")})
	if err != nil {
		t.Fatal(err)
	}
	arp := ethernet.NewARPRequest(ethernet.MAC{1}, netip.MustParseAddr("192.0.2.9"), netip.MustParseAddr("192.0.2.1"))
	fr := arp.Frame(ethernet.MAC{1})
	if v := p.Run(fr.Marshal()); v != VerdictPass {
		t.Errorf("ARP dropped: %v", v)
	}
}

func TestSourceIPFilterDropsOtherEtherTypes(t *testing.T) {
	p, err := SourceIPFilter("antispoof", []netip.Prefix{netip.MustParsePrefix("0.0.0.0/0")})
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Run(frame(t, ethernet.EtherType(0x88cc), nil)); v != VerdictDrop {
		t.Errorf("LLDP frame passed: %v", v)
	}
	// A default route whitelist passes any IPv4 source.
	if v := p.Run(ipv4Frame(t, "203.0.113.7", "10.0.0.1")); v != VerdictPass {
		t.Errorf("/0 whitelist dropped: %v", v)
	}
}

func TestSourceIPFilterTruncatedPacketAborts(t *testing.T) {
	p, err := SourceIPFilter("antispoof", []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")})
	if err != nil {
		t.Fatal(err)
	}
	short := ipv4Frame(t, "10.0.0.1", "10.0.0.2")[:20] // cut inside the IP header
	if v := p.Run(short); v != VerdictAborted {
		t.Errorf("truncated packet verdict %v, want aborted (fail closed)", v)
	}
}

func TestRateLimiter(t *testing.T) {
	p, _, err := RateLimiter("limit", 3, 30)
	if err != nil {
		t.Fatal(err)
	}
	var now uint64 = 1 << 40
	p.SetClock(func() uint64 { return now })

	pkt := ipv4Frame(t, "10.0.0.1", "10.0.0.2")
	for i := 0; i < 3; i++ {
		if v := p.Run(pkt); v != VerdictPass {
			t.Fatalf("packet %d verdict %v", i, v)
		}
	}
	for i := 0; i < 5; i++ {
		if v := p.Run(pkt); v != VerdictDrop {
			t.Fatalf("over-limit packet %d verdict %v", i, v)
		}
	}
	// Advance past the window: the limiter must reset.
	now += 2 << 30
	if v := p.Run(pkt); v != VerdictPass {
		t.Errorf("post-window packet verdict %v", v)
	}
}

func TestRateLimiterStats(t *testing.T) {
	p, _, err := RateLimiter("limit", 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	p.SetClock(func() uint64 { return 12345 << 30 })
	pkt := ipv4Frame(t, "10.0.0.1", "10.0.0.2")
	verdicts := []string{"pass", "drop", "aborted"}
	before := make([]uint64, len(verdicts))
	for i, v := range verdicts {
		before[i] = verdictCount("limit", v)
	}
	if v := p.Run(pkt); v != VerdictPass {
		t.Errorf("first packet verdict %v, want pass", v)
	}
	if v := p.Run(pkt); v != VerdictDrop {
		t.Errorf("second packet verdict %v, want drop", v)
	}
	for i, v := range verdicts {
		want := uint64(0)
		if v != "aborted" {
			want = 1
		}
		if got := verdictCount("limit", v) - before[i]; got != want {
			t.Errorf("bpf_verdicts_total{verdict=%s} moved by %d, want %d", v, got, want)
		}
	}
}

func TestArrayMapBounds(t *testing.T) {
	m := NewArrayMap(2)
	m.Update(5, 1) // out of range: ignored
	if _, ok := m.Lookup(5); ok {
		t.Error("out-of-range lookup succeeded")
	}
	m.Update(1, 42)
	if v, ok := m.Lookup(1); !ok || v != 42 {
		t.Errorf("lookup = %d,%v", v, ok)
	}
}

func TestRuntimeMapIndexAborts(t *testing.T) {
	p, err := Load("badmap", []Insn{
		{Op: OpMovImm, Dst: R4, Imm: 7},
		{Op: OpMov, Dst: R1, Src: R4}, // dynamic index: verifier can't see it
		{Op: OpCall, Imm: HelperMapLookup},
		{Op: OpMovImm, Dst: R0, Imm: uint64(VerdictPass)},
		{Op: OpExit},
	}, []Map{NewArrayMap(1)})
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Run(nil); v != VerdictAborted {
		t.Errorf("dynamic bad map index: verdict %v", v)
	}
}

// PacketCounter builds the canonical "count packets and pass" program:
// it increments slot 0 of counts on every invocation and returns
// VerdictPass.
func PacketCounter(name string, counts *ArrayMap) (*Program, error) {
	insns := []Insn{
		{Op: OpMovImm, Dst: R1, Imm: 0},    // map 0
		{Op: OpMovImm, Dst: R2, Imm: 0},    // key 0
		{Op: OpCall, Imm: HelperMapLookup}, // R0 = count
		{Op: OpMov, Dst: R3, Src: R0},      //
		{Op: OpAddImm, Dst: R3, Imm: 1},    // R3 = count+1
		{Op: OpCall, Imm: HelperMapUpdate}, // map[0] = R3
		{Op: OpMovImm, Dst: R0, Imm: uint64(VerdictPass)},
		{Op: OpExit},
	}
	return Load(name, insns, []Map{counts})
}

// SetClock overrides the timestamp source.
func (p *Program) SetClock(c Clock) { p.clock = c }

// verdictCount reads the process-wide bpf_verdicts_total series of one
// program name and verdict.
func verdictCount(prog, verdict string) uint64 {
	return telemetry.Default().Counter("bpf_verdicts_total", telemetry.L("prog", prog), telemetry.L("verdict", verdict)).Value()
}
