// Command bench is the repository's benchmark: three end-to-end paths
// (update, packet, API) of the real router, sessions, platform and
// control plane, driven through their public APIs from one process, each
// attributed to its layers from outside. See README.md in this directory.
//
//	go run ./bench -workload fanout-wide -seed 1
//	go run ./bench -workload fanout-wide -seed 1 -trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// options selects and sizes a run.
type options struct {
	workload string
	seed     int64
	seconds  float64 // wall-clock the timed phases share
	trace    bool
	// minRounds is the floor on rounds per phase; samples is how many
	// latency samples a traced run takes per latency metric, once with the
	// recorder off (the reported p50) and once with it on (the spans).
	minRounds, samples int
	outDir             string // trace files and control-plane state
	processStart       time.Time

	// Set by the smoke test only; the command line cannot, so there is one
	// benchmarked configuration. scale divides table sizes, port counts
	// and round lengths (0 or 1 = as specified); resync replaces the
	// reconciler's 250 ms resync period (0 = production).
	scale  int
	resync time.Duration
}

// harness carries one run's results.
type harness struct {
	opt      options
	rec      *recorder // nil when untraced
	values   map[string]float64
	problems []string
	// iqr collects (q75−q25)÷median of every time metric's rounds.
	iqr               []float64
	gcPerRound        []float64
	attempted, failed int64
	setup             time.Duration
	// carry holds what one path measured for a metric derived in another.
	carry struct{ memBytesPerRoute, forwardPps float64 }
}

func (h *harness) set(name string, v float64) { h.values[name] = v }

// problem records a failed correctness oracle; any problem makes the run
// incorrect and the exit code non-zero.
func (h *harness) problem(format string, args ...any) {
	h.problems = append(h.problems, fmt.Sprintf(format, args...))
}

// addSetup books one path's set-up time into setup_s.
func (h *harness) addSetup(path string, d time.Duration) {
	fmt.Printf("setup %-7s %.3f s\n", path, d.Seconds())
	h.setup += d
}

func (h *harness) ops(attempted, failed int64) {
	h.attempted += attempted
	h.failed += failed
}

// rate reports a throughput phase from its rounds under name (traced
// runs only: rates are layer metrics), and the rounds' spread into the
// noise gauge.
func (h *harness) rate(name string, s *roundSeries) {
	fmt.Printf("phase %-28s rounds=%d iqr=%.1f%% gc/round=%.0f allocs=%.4f bytes=%.2f min=%.0f p50=%.0f p90=%.0f max=%.0f\n", name, len(s.perSec),
		100*iqrFrac(s.perSec), median(s.gcCycles), median(s.allocs), median(s.bytes), quantile(s.perSec, 0), median(s.perSec), s.rate(), quantile(s.perSec, 1))
	fmt.Printf("  rates=%.0f\n", s.perSec)
	if h.opt.trace {
		h.set(name, s.rate())
	}
	h.iqr = append(h.iqr, iqrFrac(s.perSec))
	h.gcPerRound = append(h.gcPerRound, s.gcCycles...)
}

// latency reports a p50 latency metric: the median of all its samples.
func (h *harness) latency(name string, samples []float64) {
	fmt.Printf("phase %-28s samples=%d p25=%.3f p50=%.3f p75=%.3f p90=%.3f\n", name, len(samples),
		quantile(samples, 0.25), median(samples), quantile(samples, 0.75), quantile(samples, 0.9))
	h.set(name, median(samples))
}

// extraRounds is how many rounds each of a traced run's extra series
// runs (the slope's points, recorder-on rounds, 1 400-byte and churned
// forwarding): a third of the phases' floor.
func (h *harness) extraRounds() int { return max(h.opt.minRounds/3, 2) }

// run interleaves phases over their combined share of -seconds. Weights
// are the phases' own; total is the workload's sum over all paths.
func (h *harness) run(total float64, phases ...*phase) {
	var weight float64
	for _, p := range phases {
		weight += p.weight
		if p.min == 0 {
			p.min = h.opt.minRounds
		}
	}
	budget := h.opt.seconds * weight / total
	interleave(time.Duration(budget*float64(time.Second)), phases...)
}

// envStamp is what every result carries so numbers from different
// machines and commits are never compared by accident.
func envStamp(opt options) map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"seed":       fmt.Sprint(opt.seed),
		"workload":   opt.workload,
		"commit":     "unknown",
		"cpu":        "unknown",
		"loadavg":    "unknown",
	}
	// The benchmark also runs from plain checkouts that are not git
	// repositories; the commit is then unknown, not an error.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					env["cpu"] = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) >= 3 {
			env["loadavg"] = strings.Join(f[:3], " ")
		}
	}
	return env
}

// pathRun is one path, built and warmed: its timed phases, and what
// follows them (contiguous extras, metrics, oracles, teardown).
type pathRun struct {
	phases []*phase
	finish func() error
}

type preparer func(*harness, shape) (*pathRun, error)

// run executes one workload and returns its harness. Every workload is a
// whole system shape: all three paths run in every workload, the
// workload choosing which dimension is large (shapes.go).
func run(opt options) (*harness, error) {
	sh, ok := shapeFor(opt.workload, opt.scale)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(names, ", "))
	}
	h := &harness{opt: opt, values: make(map[string]float64)}
	if opt.trace {
		h.rec = newRecorder(opt.processStart)
	}
	h.addSetup("process", time.Since(opt.processStart)) // process start-up is set-up too
	// The machine's speed drifts by ±10 % over 5–10 s, so paths are not run
	// one after the other: their phases are interleaved round by round
	// over the whole run, and every metric sees every part of it. The
	// exception is an update path with a large table: its heap would make
	// every collection in the other paths' rounds expensive, so it runs
	// last, alone, on a heap the others have left.
	// (The update path is built first when it shares the run, so nothing
	// else is alive while its memory is read.)
	groups := [][]preparer{{prepareUpdatePath, prepareAPIPath, preparePacketPath}}
	if sh.update.isolated {
		groups = [][]preparer{{prepareAPIPath, preparePacketPath}, {prepareUpdatePath}}
	}
	for _, group := range groups {
		var runs []*pathRun
		var phases []*phase
		for _, prepare := range group {
			r, err := prepare(h, sh)
			if err != nil {
				return h, err
			}
			runs = append(runs, r)
			phases = append(phases, r.phases...)
		}
		h.run(sh.weights.total(), phases...)
		for _, r := range runs {
			if err := r.finish(); err != nil {
				return h, err
			}
		}
		debug.FreeOSMemory() // the next group starts on a heap this one has left
	}
	if opt.trace {
		if err := runProbes(h, sh); err != nil {
			return h, fmt.Errorf("probes: %w", err)
		}
		h.set("bench.round_iqr_frac", median(h.iqr))
		h.set("bench.gc_cycles_per_round", median(h.gcPerRound))
		self := map[string]float64{}
		_, _, self[opUpdate] = h.rec.fanoutTimes(opUpdate, spanNbrRead, spanExpWrite)
		_, _, self[opAnnounce] = h.rec.fanoutTimes(opAnnounce, spanClientAnnounce, spanNbrWrite)
		path, err := h.rec.writeTrace(opt.outDir, opt.workload, envStamp(opt), self)
		if err != nil {
			return h, fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("trace written to %s\n", path)
	} else {
		h.set("setup_s", h.setup.Seconds())
	}
	return h, nil
}

// report prints every metric by name with its unit, then the one-line
// JSON result the driver reads. It returns whether the run was correct.
func report(h *harness, decls []metricDecl) bool {
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Attempted: max(h.attempted, 1), Failed: h.failed, Metrics: make(map[string]metricValue)}

	env := envStamp(h.opt)
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("env %-11s %s\n", k, env[k])
	}
	declared := make(map[string]bool)
	for _, d := range decls {
		declared[d.Name] = true
		v, ok := h.values[d.Name]
		if !ok {
			h.problem("metric %s was not measured", d.Name)
			continue
		}
		fmt.Printf("%-40s %16.4f %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	for name := range h.values {
		if !declared[name] {
			h.problem("metric %s is not declared", name)
		}
	}
	fmt.Printf("%-40s %16d\n%-40s %16d\n", "ops_attempted", h.attempted, "ops_failed", h.failed)
	if h.failed > 0 {
		h.problem("%d of %d operations failed", h.failed, h.attempted)
	}
	for _, p := range h.problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
	out.Correct = len(h.problems) == 0
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	return out.Correct
}

// describe renders BENCHMARK.json from the declarations.
func describe() string {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, _ := json.MarshalIndent(doc, "", "  ")
	return string(data) + "\n"
}

// runSeconds is BENCHMARK.json's run_seconds: what the timed phases of
// one run share.
const runSeconds = 12

func main() {
	start := time.Now()
	// One process pinned to two procs: the sandbox has two cores, and a
	// number measured at another parallelism is another number.
	runtime.GOMAXPROCS(2)
	opt := options{minRounds: 9, samples: 1000, outDir: "bench/out", processStart: start}
	var traceFlag int
	var desc bool
	flag.StringVar(&opt.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&opt.seed, "seed", defaultSeed, "input seed; claims must also hold on the hold-out seed 20190101")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "wall-clock seconds the timed phases share")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
	flag.BoolVar(&desc, "describe", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if desc {
		fmt.Print(describe())
		return
	}
	opt.trace = traceFlag != 0
	h, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	decls := endToEnd
	if opt.trace {
		decls = perLayer
	}
	if !report(h, decls) {
		os.Exit(1)
	}
}
