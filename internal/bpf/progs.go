package bpf

import (
	"encoding/binary"
	"net/netip"
)

// Wire offsets within an Ethernet frame, used by the program builders.
const (
	offEtherType = 12
	offIPv4Src   = 14 + 12
	offIPv6Src   = 14 + 8
)

// EtherType values the programs match on.
const (
	etIPv4 = 0x0800
	etARP  = 0x0806
	etIPv6 = 0x86dd
)

// SourceIPFilter compiles an anti-spoofing whitelist: ARP passes, IPv4
// and IPv6 packets pass only if their source address falls within one of
// the allowed prefixes, and everything else drops. This is the data-plane
// policy Peering applies to experiment traffic (paper §4.7: "cannot ...
// source traffic using address space that is not part of the
// experiment's allocation").
func SourceIPFilter(name string, allowed []netip.Prefix) (*Program, error) {
	var v4, v6 []netip.Prefix
	for _, p := range allowed {
		if p.Addr().Is6() {
			v6 = append(v6, p)
		} else {
			v4 = append(v4, p)
		}
	}

	var insns []Insn
	emit := func(in Insn) int {
		insns = append(insns, in)
		return len(insns) - 1
	}
	// Jump targets are fixed up after layout.
	var toPass, toDrop, toV6 []int

	emit(Insn{Op: OpMovImm, Dst: R6, Imm: 0})                  // R6: packet base
	emit(Insn{Op: OpLdH, Dst: R7, Src: R6, Off: offEtherType}) // R7 = ethertype
	toPass = append(toPass, emit(Insn{Op: OpJEqImm, Dst: R7, Imm: etARP}))
	toV6 = append(toV6, emit(Insn{Op: OpJEqImm, Dst: R7, Imm: etIPv6}))
	toDrop = append(toDrop, emit(Insn{Op: OpJNeImm, Dst: R7, Imm: etIPv4}))

	// IPv4: R8 = source address; compare against each prefix.
	emit(Insn{Op: OpLdW, Dst: R8, Src: R6, Off: offIPv4Src})
	for _, p := range v4 {
		addr := binary.BigEndian.Uint32(p.Addr().AsSlice())
		mask := uint32(0xffffffff)
		if b := p.Bits(); b < 32 {
			mask = ^(uint32(0xffffffff) >> b)
			if b == 0 {
				mask = 0
			}
		}
		emit(Insn{Op: OpMov, Dst: R3, Src: R8})
		emit(Insn{Op: OpAndImm, Dst: R3, Imm: uint64(mask)})
		toPass = append(toPass, emit(Insn{Op: OpJEqImm, Dst: R3, Imm: uint64(addr & mask)}))
	}
	toDrop = append(toDrop, emit(Insn{Op: OpJmp}))

	// IPv6: compare the source address word by word per prefix.
	v6Start := len(insns)
	for _, p := range v6 {
		raw := p.Addr().As16()
		bits := p.Bits()
		var miss []int
		for w := 0; w < 4 && bits > 0; w++ {
			wordBits := min(bits, 32)
			bits -= wordBits
			mask := ^(uint32(0xffffffff) >> wordBits)
			if wordBits == 0 {
				mask = 0
			}
			want := binary.BigEndian.Uint32(raw[w*4:]) & mask
			emit(Insn{Op: OpLdW, Dst: R3, Src: R6, Off: int32(offIPv6Src + w*4)})
			emit(Insn{Op: OpAndImm, Dst: R3, Imm: uint64(mask)})
			miss = append(miss, emit(Insn{Op: OpJNeImm, Dst: R3, Imm: uint64(want)}))
		}
		toPass = append(toPass, emit(Insn{Op: OpJmp}))
		next := len(insns)
		for _, i := range miss {
			insns[i].Off = int32(next - i - 1)
		}
	}
	toDrop = append(toDrop, emit(Insn{Op: OpJmp}))

	dropAt := len(insns)
	emit(Insn{Op: OpMovImm, Dst: R0, Imm: uint64(VerdictDrop)})
	emit(Insn{Op: OpExit})
	passAt := len(insns)
	emit(Insn{Op: OpMovImm, Dst: R0, Imm: uint64(VerdictPass)})
	emit(Insn{Op: OpExit})

	for _, i := range toPass {
		insns[i].Off = int32(passAt - i - 1)
	}
	for _, i := range toDrop {
		insns[i].Off = int32(dropAt - i - 1)
	}
	for _, i := range toV6 {
		insns[i].Off = int32(v6Start - i - 1)
	}
	return Load(name, insns, nil)
}

// RateLimiter builds a fixed-window packet rate limiter: at most limit
// packets per window of 2^windowShift nanoseconds (windowShift=30 is
// ~1.07 s). State lives in an ArrayMap so the limit applies across
// executions, the stateful-policy capability the paper highlights for
// eBPF enforcement (§3.3).
func RateLimiter(name string, limit uint64, windowShift uint) (*Program, *ArrayMap, error) {
	state := NewArrayMap(2) // slot 0: window id, slot 1: count
	insns := []Insn{
		/*  0 */ {Op: OpCall, Imm: HelperKtimeNS}, // R0 = now
		/*  1 */ {Op: OpRsh, Dst: R0, Imm: uint64(windowShift)},
		/*  2 */ {Op: OpMov, Dst: R8, Src: R0}, // R8 = window id
		/*  3 */ {Op: OpMovImm, Dst: R1, Imm: 0}, // map 0
		/*  4 */ {Op: OpMovImm, Dst: R2, Imm: 0}, // key 0: stored window
		/*  5 */ {Op: OpCall, Imm: HelperMapLookup}, // R0 = stored window
		/*  6 */ {Op: OpJEq, Dst: R0, Src: R8, Off: 5}, // same window: skip reset, land at 12
		// New window: store window id, reset count.
		/*  7 */ {Op: OpMov, Dst: R3, Src: R8},
		/*  8 */ {Op: OpCall, Imm: HelperMapUpdate}, // map[0] = window
		/*  9 */ {Op: OpMovImm, Dst: R2, Imm: 1},
		/* 10 */ {Op: OpMovImm, Dst: R3, Imm: 0},
		/* 11 */ {Op: OpCall, Imm: HelperMapUpdate}, // map[1] = 0
		/* 12 */ {Op: OpMovImm, Dst: R2, Imm: 1}, // key 1: count
		/* 13 */ {Op: OpCall, Imm: HelperMapLookup}, // R0 = count
		/* 14 */ {Op: OpJLtImm, Dst: R0, Imm: limit, Off: 2}, // under limit: land at 17
		// Over limit: drop.
		/* 15 */ {Op: OpMovImm, Dst: R0, Imm: uint64(VerdictDrop)},
		/* 16 */ {Op: OpExit},
		// Under limit: count++ and pass.
		/* 17 */ {Op: OpMov, Dst: R3, Src: R0},
		/* 18 */ {Op: OpAddImm, Dst: R3, Imm: 1},
		/* 19 */ {Op: OpCall, Imm: HelperMapUpdate}, // map[1] = count+1
		/* 20 */ {Op: OpMovImm, Dst: R0, Imm: uint64(VerdictPass)},
		/* 21 */ {Op: OpExit},
	}
	p, err := Load(name, insns, []Map{state})
	if err != nil {
		return nil, nil, err
	}
	return p, state, nil
}
