// Package bpf holds the data-plane engine's one rule (paper §3.3, §4.7):
// the anti-spoofing verdict every experiment tap applies to the frames an
// experiment sends. In PEERING the platform writes this rule and
// experiments never load programs, so the rule is a compiled Go check
// over the experiment's allocation rather than bytecode on an
// interpreter. The package keeps its eBPF-era name only because the
// benchmark harness imports it under that name; renaming it, or folding
// it into package peering, waits for the next change to the benchmark.
package bpf

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Verdict is a program's decision on one frame, named after XDP's.
type Verdict uint8

// Verdicts. The zero Verdict drops.
const (
	VerdictDrop Verdict = iota
	VerdictPass
)

// Wire offsets within an Ethernet frame.
const (
	offEtherType = 12
	offIPv4Src   = 14 + 12
	offIPv6Src   = 14 + 8
)

// EtherType values the verdict tells apart.
const (
	etIPv4 = 0x0800
	etARP  = 0x0806
	etIPv6 = 0x86dd
)

// Program is an immutable source-address whitelist compiled from an
// allocation. Run is safe for concurrent use and allocates nothing.
type Program struct {
	v4 []v4Prefix
	v6 []v6Prefix
}

// v4Prefix is an IPv4 prefix as (addr, mask), addr already masked.
type v4Prefix struct{ addr, mask uint32 }

// v6Prefix is an IPv6 prefix as two 64-bit (addr, mask) halves, addr
// already masked.
type v6Prefix struct{ addr, mask [2]uint64 }

// SourceIPFilter compiles an anti-spoofing whitelist: ARP passes, IPv4
// and IPv6 frames pass only if their source address falls within one of
// the allowed prefixes, and everything else drops, a frame too short to
// hold its source address included (fail closed). This is the data-plane
// policy PEERING applies to experiment traffic (paper §4.7: "cannot ...
// source traffic using address space that is not part of the
// experiment's allocation"). The name is unused: a program counts
// nothing itself, and the tap that runs it counts its drops.
func SourceIPFilter(_ string, allowed []netip.Prefix) (*Program, error) {
	p := &Program{}
	for _, pfx := range allowed {
		if !pfx.IsValid() {
			return nil, fmt.Errorf("bpf: invalid prefix %v", pfx)
		}
		pfx = pfx.Masked()
		if pfx.Addr().Is4() {
			mask := uint32(0)
			if b := pfx.Bits(); b > 0 {
				mask = ^uint32(0) << (32 - b)
			}
			p.v4 = append(p.v4, v4Prefix{binary.BigEndian.Uint32(pfx.Addr().AsSlice()), mask})
			continue
		}
		raw := pfx.Addr().As16()
		q := v6Prefix{addr: [2]uint64{binary.BigEndian.Uint64(raw[:8]), binary.BigEndian.Uint64(raw[8:])}}
		for w, bits := 0, pfx.Bits(); w < 2 && bits > 0; w, bits = w+1, bits-64 {
			q.mask[w] = ^uint64(0) << (64 - min(bits, 64))
		}
		p.v6 = append(p.v6, q)
	}
	return p, nil
}

// Run returns the program's verdict on one Ethernet frame.
func (p *Program) Run(frame []byte) Verdict {
	if len(frame) < offEtherType+2 {
		return VerdictDrop
	}
	switch binary.BigEndian.Uint16(frame[offEtherType:]) {
	case etARP:
		return VerdictPass
	case etIPv4:
		if len(frame) < offIPv4Src+4 {
			return VerdictDrop
		}
		src := binary.BigEndian.Uint32(frame[offIPv4Src:])
		for _, q := range p.v4 {
			if src&q.mask == q.addr {
				return VerdictPass
			}
		}
	case etIPv6:
		if len(frame) < offIPv6Src+16 {
			return VerdictDrop
		}
		hi := binary.BigEndian.Uint64(frame[offIPv6Src:])
		lo := binary.BigEndian.Uint64(frame[offIPv6Src+8:])
		for _, q := range p.v6 {
			if hi&q.mask[0] == q.addr[0] && lo&q.mask[1] == q.addr[1] {
				return VerdictPass
			}
		}
	}
	return VerdictDrop
}
