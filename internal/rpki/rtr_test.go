package rpki

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func TestPDURoundTrip(t *testing.T) {
	cases := []PDU{
		{Type: PDUSerialNotify, Session: 7, Serial: 42},
		{Type: PDUSerialQuery, Session: 7, Serial: 41},
		{Type: PDUResetQuery},
		{Type: PDUCacheResponse, Session: 7},
		{Type: PDUIPv4Prefix, Announce: true, ROA: ROA{Prefix: pfx("184.164.224.0/22"), MaxLength: 24, ASN: 61574}},
		{Type: PDUIPv4Prefix, Announce: false, ROA: ROA{Prefix: pfx("10.0.0.0/8"), MaxLength: 8, ASN: 1}},
		{Type: PDUIPv6Prefix, Announce: true, ROA: ROA{Prefix: pfx("2001:db8::/32"), MaxLength: 48, ASN: 61574}},
		{Type: PDUEndOfData, Session: 7, Serial: 42},
		{Type: PDUCacheReset, Session: 7},
		{Type: PDUErrorReport, Text: "unexpected PDU type 9"},
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		for _, p := range cases {
			if err := WritePDU(a, p); err != nil {
				return
			}
		}
	}()
	for i, want := range cases {
		got, err := ReadPDU(b)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Type != want.Type || got.Serial != want.Serial || got.Announce != want.Announce ||
			got.ROA != want.ROA || got.Text != want.Text {
			t.Fatalf("case %d: got %+v want %+v", i, got, want)
		}
	}
}

// testCache is a server plus a dialer that hands the server one end of
// a fresh pipe per dial — the shape the platform wires through chaos.
type testCache struct {
	store  *Store
	server *Server
	mu     sync.Mutex
	conns  []net.Conn
}

func newTestCache(store *Store) *testCache {
	return &testCache{store: store, server: NewServer(store, 1)}
}

func (tc *testCache) dial() (net.Conn, error) {
	client, srv := net.Pipe()
	tc.mu.Lock()
	tc.conns = append(tc.conns, srv)
	tc.mu.Unlock()
	go func() { _ = tc.server.Serve(srv) }()
	return client, nil
}

// killSessions severs every active cache session server-side.
func (tc *testCache) killSessions() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, c := range tc.conns {
		c.Close()
	}
	tc.conns = nil
}

func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSerialSyncPropagates is the acceptance-criterion test: a ROA
// added or revoked on the cache reaches a connected client via Serial
// Notify + incremental Cache Response — no session restart — flipping
// a held route between Valid and Invalid.
func TestSerialSyncPropagates(t *testing.T) {
	store := NewStore()
	store.Add(ROA{Prefix: pfx("184.164.224.0/22"), MaxLength: 24, ASN: 61574})
	tc := newTestCache(store)

	c := NewClient(ClientConfig{Name: "t", Dial: tc.dial, Logf: t.Logf})
	defer c.Close()
	if !c.WaitSynced(5 * time.Second) {
		t.Fatal("client never synced")
	}
	route := pfx("184.164.224.0/24")
	if got := c.Validate(route, 61574); got != Valid {
		t.Fatalf("after initial sync: %v", got)
	}
	dialsBefore := rtrDials.Value()

	// A competing ROA keeps the prefix covered, so revoking the
	// authorizing ROA flips the held route Valid → Invalid (rather than
	// to NotFound).
	store.Add(ROA{Prefix: pfx("184.164.224.0/22"), MaxLength: 22, ASN: 64999})
	store.Revoke(ROA{Prefix: pfx("184.164.224.0/22"), MaxLength: 24, ASN: 61574})
	waitFor(t, "revocation to propagate", 5*time.Second, func() bool {
		return c.Validate(route, 61574) == Invalid
	})

	// Re-add: flips back to Valid, again purely via notify+serial query.
	store.Add(ROA{Prefix: pfx("184.164.224.0/22"), MaxLength: 24, ASN: 61574})
	waitFor(t, "announcement to propagate", 5*time.Second, func() bool {
		return c.Validate(route, 61574) == Valid
	})

	if got := rtrDials.Value(); got != dialsBefore {
		t.Fatalf("sync used %d redials; must converge over the live session", got-dialsBefore)
	}
	if c.Serial() != store.Serial() {
		t.Fatalf("client serial %d != store serial %d", c.Serial(), store.Serial())
	}
}

// TestStaleExpiryFailsClosed kills the cache session and checks the
// fail-closed contract: after the freshness window lapses the cache is
// stale but keeps validating — Invalid never passes, NotFound-only
// coverage still does — and a redial reconverges.
func TestStaleExpiryFailsClosed(t *testing.T) {
	store := NewStore()
	store.Add(ROA{Prefix: pfx("184.164.224.0/22"), MaxLength: 24, ASN: 61574})
	tc := newTestCache(store)

	var dialable sync.Mutex
	blocked := false
	dial := func() (net.Conn, error) {
		dialable.Lock()
		b := blocked
		dialable.Unlock()
		if b {
			return nil, fmt.Errorf("cache unreachable")
		}
		return tc.dial()
	}
	c := NewClient(ClientConfig{Name: "t", Dial: dial, StaleExpiry: 50 * time.Millisecond, Logf: t.Logf})
	defer c.Close()
	if !c.WaitSynced(5 * time.Second) {
		t.Fatal("client never synced")
	}

	dialable.Lock()
	blocked = true
	dialable.Unlock()
	tc.killSessions()
	waitFor(t, "stale trip", 5*time.Second, func() bool { return c.Stale() })

	// Fail closed on stale data: Invalid still rejected, NotFound still
	// passes.
	if got := c.Validate(pfx("184.164.224.0/25"), 64666); got != Invalid {
		t.Fatalf("stale cache must still return Invalid: %v", got)
	}
	if got := c.Validate(pfx("8.8.8.0/24"), 15169); got != NotFound {
		t.Fatalf("stale cache NotFound: %v", got)
	}
	if got := c.Validate(pfx("184.164.224.0/24"), 61574); got != Valid {
		t.Fatalf("stale cache retains Valid: %v", got)
	}

	// A ROA change while disconnected must arrive after the redial.
	store.Add(ROA{Prefix: pfx("198.51.100.0/24"), ASN: 64777})
	dialable.Lock()
	blocked = false
	dialable.Unlock()
	waitFor(t, "reconvergence after redial", 5*time.Second, func() bool {
		return c.Connected() && !c.Stale() && c.Validate(pfx("198.51.100.0/24"), 64777) == Valid
	})
	if c.Serial() != store.Serial() {
		t.Fatalf("client serial %d != store serial %d after redial", c.Serial(), store.Serial())
	}
}

// TestCacheResetResync forces the client's serial out of the retained
// delta window and checks the Cache Reset → full resync path.
func TestCacheResetResync(t *testing.T) {
	store := NewStore()
	store.Add(ROA{Prefix: pfx("10.0.0.0/8"), MaxLength: 24, ASN: 1})
	tc := newTestCache(store)
	c := NewClient(ClientConfig{Name: "t", Dial: tc.dial, StaleExpiry: time.Hour, Logf: t.Logf})
	defer c.Close()
	if !c.WaitSynced(5 * time.Second) {
		t.Fatal("client never synced")
	}
	tc.killSessions()
	// Push the store far beyond the delta window while disconnected.
	for i := 0; i < deltaLogCap+8; i++ {
		store.Add(ROA{Prefix: pfx(fmt.Sprintf("172.%d.%d.0/24", 16+i/256, i%256)), ASN: uint32(i%64 + 2)})
	}
	waitFor(t, "full resync after cache reset", 10*time.Second, func() bool {
		return c.Connected() && c.Serial() == store.Serial()
	})
	if got := c.Validate(pfx("172.16.7.0/24"), 9); got != Valid {
		t.Fatalf("post-resync validation: %v", got)
	}
}

func TestServerMultipleSessions(t *testing.T) {
	store := NewStore()
	store.Add(ROA{Prefix: pfx("10.0.0.0/8"), MaxLength: 24, ASN: 1})
	tc := newTestCache(store)
	var clients []*Client
	for i := 0; i < 3; i++ {
		c := NewClient(ClientConfig{Name: fmt.Sprintf("c%d", i), Dial: tc.dial})
		defer c.Close()
		clients = append(clients, c)
	}
	for _, c := range clients {
		if !c.WaitSynced(5 * time.Second) {
			t.Fatal("client never synced")
		}
	}
	store.Add(ROA{Prefix: pfx("11.0.0.0/8"), MaxLength: 24, ASN: 2})
	for i, c := range clients {
		cl := c
		waitFor(t, fmt.Sprintf("client %d convergence", i), 5*time.Second, func() bool {
			return cl.Validate(pfx("11.1.1.0/24"), 2) == Valid
		})
	}
}

// Stale reports whether the cache session is down and the freshness
// window has lapsed. Validation still runs (fail closed).
func (c *Client) Stale() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stale
}

// Connected reports whether an RTR session is currently up and synced.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.connected && c.synced
}

// WaitSynced blocks until the client has applied a synchronization and
// is connected, or the timeout lapses.
func (c *Client) WaitSynced(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.Connected() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return c.Connected()
}
