package bpf

import (
	"encoding/binary"
	"fmt"
)

// Program is a verified, runnable filter program. Create with Load.
type Program struct {
	// Name labels the program in logs and stats.
	Name string

	insns []Insn
	maps  []Map
	clock Clock

	verdicts verdictCounters
}

// Load verifies insns and returns a runnable program. maps are the map
// objects referenced by index from map helpers (R1 selects the map).
func Load(name string, insns []Insn, maps []Map) (*Program, error) {
	if err := Verify(insns, len(maps)); err != nil {
		return nil, fmt.Errorf("bpf: verifier rejected %s: %w", name, err)
	}
	return &Program{Name: name, insns: insns, maps: maps, clock: MonotonicClock, verdicts: newVerdictCounters(name)}, nil
}

// Run executes the program over pkt and returns its verdict. A packet
// load out of bounds aborts (VerdictAborted), which callers must treat as
// a drop — the fail-closed behavior the paper requires of enforcement
// (§4.7).
func (p *Program) Run(pkt []byte) Verdict {
	v := p.run(pkt)
	p.verdicts.count(v)
	return v
}

func (p *Program) run(pkt []byte) Verdict {
	var r [NumRegs]uint64
	pc := 0
	for pc < len(p.insns) {
		in := p.insns[pc]
		pc++
		switch in.Op {
		case OpMov:
			r[in.Dst] = r[in.Src]
		case OpMovImm:
			r[in.Dst] = in.Imm
		case OpLdLen:
			r[in.Dst] = uint64(len(pkt))
		case OpLdB, OpLdH, OpLdW:
			off := int(r[in.Src]) + int(in.Off)
			size := map[Op]int{OpLdB: 1, OpLdH: 2, OpLdW: 4}[in.Op]
			if off < 0 || off+size > len(pkt) {
				return VerdictAborted
			}
			switch in.Op {
			case OpLdB:
				r[in.Dst] = uint64(pkt[off])
			case OpLdH:
				r[in.Dst] = uint64(binary.BigEndian.Uint16(pkt[off:]))
			case OpLdW:
				r[in.Dst] = uint64(binary.BigEndian.Uint32(pkt[off:]))
			}
		case OpAdd:
			r[in.Dst] += r[in.Src]
		case OpAddImm:
			r[in.Dst] += in.Imm
		case OpSub:
			r[in.Dst] -= r[in.Src]
		case OpAnd:
			r[in.Dst] &= r[in.Src]
		case OpAndImm:
			r[in.Dst] &= in.Imm
		case OpOr:
			r[in.Dst] |= r[in.Src]
		case OpOrImm:
			r[in.Dst] |= in.Imm
		case OpLsh:
			r[in.Dst] <<= in.Imm & 63
		case OpRsh:
			r[in.Dst] >>= in.Imm & 63
		case OpJmp:
			pc += int(in.Off)
		case OpJEq:
			if r[in.Dst] == r[in.Src] {
				pc += int(in.Off)
			}
		case OpJEqImm:
			if r[in.Dst] == in.Imm {
				pc += int(in.Off)
			}
		case OpJNeImm:
			if r[in.Dst] != in.Imm {
				pc += int(in.Off)
			}
		case OpJGtImm:
			if r[in.Dst] > in.Imm {
				pc += int(in.Off)
			}
		case OpJLtImm:
			if r[in.Dst] < in.Imm {
				pc += int(in.Off)
			}
		case OpJSetImm:
			if r[in.Dst]&in.Imm != 0 {
				pc += int(in.Off)
			}
		case OpCall:
			switch in.Imm {
			case HelperKtimeNS:
				r[R0] = p.clock()
			case HelperMapLookup:
				if r[R1] >= uint64(len(p.maps)) {
					return VerdictAborted
				}
				v, ok := p.maps[r[R1]].Lookup(r[R2])
				r[R0] = v
				if ok {
					r[R9] = 1
				} else {
					r[R9] = 0
				}
			case HelperMapUpdate:
				if r[R1] >= uint64(len(p.maps)) {
					return VerdictAborted
				}
				p.maps[r[R1]].Update(r[R2], r[R3])
			default:
				return VerdictAborted
			}
		case OpExit:
			return Verdict(r[R0])
		default:
			return VerdictAborted
		}
	}
	// Verifier guarantees this is unreachable.
	return VerdictAborted
}

// Verify statically checks a program, enforcing the same guarantees the
// kernel verifier provides for classic forward-jump programs:
//
//   - at most MaxInsns instructions
//   - register indexes in range
//   - jumps land inside the program and never jump backward, so every
//     execution terminates
//   - the program cannot fall off the end: the last reachable
//     instruction on every path is OpExit
//   - map helper calls only when the program has maps; the verifier
//     cannot prove R1 in range statically, so map index range is also
//     rechecked at run time via the map slice bound below
func Verify(insns []Insn, numMaps int) error {
	if len(insns) == 0 {
		return fmt.Errorf("empty program")
	}
	if len(insns) > MaxInsns {
		return fmt.Errorf("program too long: %d insns", len(insns))
	}
	hasExit := false
	for i, in := range insns {
		if int(in.Dst) >= NumRegs || int(in.Src) >= NumRegs {
			return fmt.Errorf("insn %d: register out of range", i)
		}
		switch in.Op {
		case OpJmp, OpJEq, OpJEqImm, OpJNeImm, OpJGtImm, OpJLtImm, OpJSetImm:
			if in.Off < 0 {
				return fmt.Errorf("insn %d: backward jump", i)
			}
			if i+1+int(in.Off) > len(insns) {
				return fmt.Errorf("insn %d: jump out of bounds", i)
			}
		case OpCall:
			switch in.Imm {
			case HelperKtimeNS:
			case HelperMapLookup, HelperMapUpdate:
				if numMaps == 0 {
					return fmt.Errorf("insn %d: map helper without maps", i)
				}
			default:
				return fmt.Errorf("insn %d: unknown helper %d", i, in.Imm)
			}
		case OpExit:
			hasExit = true
		case OpMov, OpMovImm, OpLdB, OpLdH, OpLdW, OpLdLen,
			OpAdd, OpAddImm, OpSub, OpAnd, OpAndImm, OpOr, OpOrImm, OpLsh, OpRsh:
		default:
			return fmt.Errorf("insn %d: unknown opcode %d", i, in.Op)
		}
	}
	if !hasExit {
		return fmt.Errorf("program has no exit")
	}
	// No fall-through past the end: the final instruction must be an
	// unconditional control transfer (exit), since all jumps are forward.
	if last := insns[len(insns)-1]; last.Op != OpExit {
		return fmt.Errorf("program may fall off the end (last insn is not exit)")
	}
	// Map helpers index maps via R1 at run time; ensure any statically
	// visible immediate map loads are in range.
	for i, in := range insns {
		if in.Op == OpMovImm && in.Dst == R1 && i+1 < len(insns) {
			next := insns[i+1]
			if next.Op == OpCall && (next.Imm == HelperMapLookup || next.Imm == HelperMapUpdate) {
				if in.Imm >= uint64(numMaps) {
					return fmt.Errorf("insn %d: map index %d out of range", i, in.Imm)
				}
			}
		}
	}
	return nil
}
