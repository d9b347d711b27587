package bpf

import (
	"sync"
	"time"
)

// Map is program-accessible state shared between executions, the
// mechanism that makes stateful policies (rate limits, counters)
// possible.
type Map interface {
	// Lookup returns the value for key and whether it was present.
	Lookup(key uint64) (uint64, bool)
	// Update sets the value for key.
	Update(key, value uint64)
}

// ArrayMap is a fixed-size array of u64 values indexed by key, like
// BPF_MAP_TYPE_ARRAY. Out-of-range keys miss.
type ArrayMap struct {
	mu     sync.Mutex
	values []uint64
}

// NewArrayMap creates an array map with n slots, all zero.
func NewArrayMap(n int) *ArrayMap {
	return &ArrayMap{values: make([]uint64, n)}
}

// Lookup implements Map.
func (m *ArrayMap) Lookup(key uint64) (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key >= uint64(len(m.values)) {
		return 0, false
	}
	return m.values[key], true
}

// Update implements Map. Out-of-range updates are ignored.
func (m *ArrayMap) Update(key, value uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key < uint64(len(m.values)) {
		m.values[key] = value
	}
}

// Clock abstracts time for HelperKtimeNS so tests can run deterministic
// rate-limit scenarios.
type Clock func() uint64

// MonotonicClock is the default clock.
func MonotonicClock() uint64 { return uint64(time.Now().UnixNano()) }
