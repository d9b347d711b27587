package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The packages under test are not edited by the benchmark, so every
// per-layer number is taken from outside: the benchmark wraps each
// net.Conn, callback and HTTP round-trip it hands to or receives from
// the system and records a span at that boundary. Spans are kept in
// memory and written when the run ends.

// Span names at the boundaries the benchmark owns.
const (
	spanNbrRead  = "nbr-conn-read"  // router reads a neighbor session's bytes
	spanNbrWrite = "nbr-conn-write" // router writes to a neighbor session
	spanExpWrite = "exp-conn-write" // router writes to an experiment session
)

// span is one boundary crossing. Times are nanoseconds since the
// recorder's epoch; Parent indexes the span that caused this one (-1
// for the root of an operation); spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Bytes  int    `json:"bytes,omitempty"`
}

// recorder collects spans for sampled operations (one in flight at a
// time, so the current operation is a single atomic) and plain counters
// for throughput rounds, where a span per write would cost more than the
// write.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	root  int // index of the current operation's root span
	ops   int // operations begun so far; the next one's id

	op atomic.Int64 // current operation id, -1 between operations
	// off suspends recording. It is set while the timed phases run, which
	// a traced run repeats as an untraced one does, and cleared for the
	// rounds and sampled operations that follow them.
	off atomic.Bool

	// Experiment-conn write totals (pipe.write_wait_frac,
	// bgp.wire_bytes_per_route, bgp.writes_per_route).
	expWriteNs, expWrites, expWriteBytes atomic.Int64
}

func newRecorder(epoch time.Time) *recorder {
	r := &recorder{epoch: epoch, spans: make([]span, 0, 1<<16)}
	r.op.Store(-1)
	r.off.Store(true)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// active reports whether spans are being recorded: the run is traced and
// recording is not suspended.
func (r *recorder) active() bool { return r != nil && !r.off.Load() }

// beginOp opens the root span of a sampled operation of the named kind.
func (r *recorder) beginOp(kind string) {
	r.mu.Lock()
	r.ops++
	r.root = len(r.spans)
	r.spans = append(r.spans, span{Name: kind, Start: r.now(), Parent: -1, Op: r.ops})
	r.op.Store(int64(r.ops))
	r.mu.Unlock()
}

// endOp closes the current operation with its measured start and end
// (nanoseconds since the epoch).
func (r *recorder) endOp(start, end int64) {
	r.op.Store(-1)
	r.mu.Lock()
	r.spans[r.root].Start, r.spans[r.root].End = start, end
	r.mu.Unlock()
}

// add records a child span of the current operation, if there is one.
func (r *recorder) add(name string, start, end int64, bytes int) {
	op := r.op.Load()
	if op < 0 {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: r.root, Op: int(op), Bytes: bytes})
	r.mu.Unlock()
}

// tracedConn records the reads and writes the system performs on a
// transport the benchmark handed it.
type tracedConn struct {
	net.Conn
	rec                 *recorder
	readName, writeName string
}

// wrap returns conn with its Read and/or Write recorded under the given
// span names (empty = not recorded).
func (r *recorder) wrap(conn net.Conn, readName, writeName string) net.Conn {
	return &tracedConn{Conn: conn, rec: r, readName: readName, writeName: writeName}
}

func (c *tracedConn) Read(p []byte) (int, error) {
	if c.readName == "" || c.rec.off.Load() {
		return c.Conn.Read(p)
	}
	start := c.rec.now()
	n, err := c.Conn.Read(p)
	c.rec.add(c.readName, start, c.rec.now(), n)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if c.writeName == "" || c.rec.off.Load() {
		return c.Conn.Write(p)
	}
	start := c.rec.now()
	n, err := c.Conn.Write(p)
	end := c.rec.now()
	if c.writeName == spanExpWrite {
		c.rec.expWriteNs.Add(end - start)
		c.rec.expWrites.Add(1)
		c.rec.expWriteBytes.Add(int64(n))
	}
	c.rec.add(c.writeName, start, end, n)
	return n, err
}

// opSpans groups the recorded spans of one kind of operation: per
// operation, the root followed by its children in recording order.
func (r *recorder) opSpans(kind string) [][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	byOp := make(map[int][]span)
	var order []int
	for _, s := range r.spans {
		if s.Parent < 0 {
			if s.Name != kind {
				continue
			}
			order = append(order, s.Op)
		} else if _, ok := byOp[s.Op]; !ok {
			continue
		}
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	out := make([][]span, 0, len(order))
	for _, op := range order {
		out = append(out, byOp[op])
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(root span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, root.Start), min(c.End, root.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, edge := int64(0), root.Start
	for _, v := range ivs {
		if v.b <= edge {
			continue
		}
		covered += v.b - max(v.a, edge)
		edge = v.b
	}
	return root.End - root.Start - covered
}

// fanoutTimes derives, over the sampled operations of one kind, the p50
// of (a) the last readName return → the first writeName start, (b) the
// first writeName start → the last writeName end, and (c) the
// operation's time outside those writes. All in microseconds.
func (r *recorder) fanoutTimes(kind, readName, writeName string) (ingestUs, fanoutUs, selfUs float64) {
	var ingest, fanout, self []float64
	for _, spans := range r.opSpans(kind) {
		var firstWrite, lastWriteEnd, lastRead int64 = -1, 0, -1
		for _, s := range spans[1:] {
			if s.Name == writeName {
				if firstWrite < 0 || s.Start < firstWrite {
					firstWrite = s.Start
				}
				lastWriteEnd = max(lastWriteEnd, s.End)
			}
		}
		if firstWrite < 0 {
			continue
		}
		for _, s := range spans[1:] {
			if s.Name == readName && s.End <= firstWrite && s.End > lastRead && s.End >= spans[0].Start {
				lastRead = s.End
			}
		}
		if lastRead >= 0 {
			ingest = append(ingest, float64(firstWrite-lastRead)/1e3)
		}
		fanout = append(fanout, float64(lastWriteEnd-firstWrite)/1e3)
		var writes []span
		for _, s := range spans[1:] {
			if s.Name == writeName {
				writes = append(writes, s)
			}
		}
		self = append(self, float64(selfTime(spans[0], writes))/1e3)
	}
	return median(ingest), median(fanout), median(self)
}

// traceFile is what -trace writes to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string            `json:"workload"`
	Env      map[string]string `json:"env"`
	// SelfUs is, per operation kind, the median time of the operation not
	// covered by the child spans recorded for it.
	SelfUs map[string]float64 `json:"self_us"`
	Spans  []span             `json:"spans"`
}

func (r *recorder) writeTrace(dir, workload string, env map[string]string, selfUs map[string]float64) (string, error) {
	r.mu.Lock()
	tf := traceFile{Workload: workload, Env: env, SelfUs: selfUs, Spans: r.spans}
	r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
