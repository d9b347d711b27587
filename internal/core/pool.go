// Package core implements vBGP, the paper's primary contribution: a
// framework that virtualizes the data and control planes of a BGP edge
// router and delegates them to multiple parallel experiments while
// interposing security enforcement on both planes (paper §3).
//
// A Router terminates BGP sessions with external neighbors, maintains one
// routing table per neighbor, rewrites the next hop of every learned
// route to a private per-neighbor IP address, and exports all routes to
// each experiment over a single ADD-PATH BGP session. Experiments select
// the route for each packet by addressing the frame to the per-neighbor
// MAC that the private next hop resolves to (§3.2.2, Fig. 2). Across the
// platform backbone, a global pool assigns each external neighbor a
// platform-wide IP so the same mechanism chains hop by hop (§4.4,
// Fig. 5).
package core

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync"
)

// Pool allocates IPv4 addresses sequentially from a prefix. vBGP uses two
// pools: a per-router local pool (conventionally 127.65.0.0/16) whose
// addresses are handed to experiments as next hops, and a platform-wide
// global pool (conventionally 127.127.0.0/16) that names each external
// neighbor uniquely across all PoPs.
type Pool struct {
	prefix netip.Prefix

	mu   sync.Mutex
	next uint32
}

// NewPool creates an allocator over an IPv4 prefix. The network address
// itself is never allocated.
func NewPool(prefix netip.Prefix) *Pool {
	if prefix.Addr().Is6() {
		panic("core: pools are IPv4")
	}
	return &Pool{prefix: prefix.Masked()}
}

// Contains reports whether addr was carved from this pool's prefix.
func (p *Pool) Contains(addr netip.Addr) bool {
	return addr.Is4() && p.prefix.Contains(addr)
}

// Alloc returns the next unused address.
func (p *Pool) Alloc() (netip.Addr, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.next++
	hostBits := 32 - p.prefix.Bits()
	if hostBits < 32 && p.next >= 1<<hostBits {
		return netip.Addr{}, fmt.Errorf("core: pool %s exhausted", p.prefix)
	}
	base := binary.BigEndian.Uint32(p.prefix.Addr().AsSlice())
	var raw [4]byte
	binary.BigEndian.PutUint32(raw[:], base+p.next)
	return netip.AddrFrom4(raw), nil
}

// MustAlloc is Alloc, panicking on exhaustion. For configuration paths
// where pool sizing is static.
func (p *Pool) MustAlloc() netip.Addr {
	a, err := p.Alloc()
	if err != nil {
		panic(err)
	}
	return a
}

// Default pool prefixes from the paper's examples.
var (
	// DefaultLocalPool is the per-router next-hop pool (Fig. 2).
	DefaultLocalPool = netip.MustParsePrefix("127.65.0.0/16")
	// DefaultGlobalPool is the platform-wide neighbor pool (Fig. 5).
	DefaultGlobalPool = netip.MustParsePrefix("127.127.0.0/16")
)
