// Command perfbench is the repository benchmark. It drives each layer
// of parsurf from outside, through the layer's public functions, on one
// of three workloads:
//
//	sweep    sweep jobs over loopback HTTP to an in-memory surfd
//	jobs     many small jobs from two clients to a surfd whose durable
//	         manager runs on the in-memory store
//	fleet    the sweep requests through a fleet-mode surfd and worker
//
// The traced sweep run also measures the engine layer: the paper's
// engine comparison on a committed 512² ZGB state.
//
// Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload sweep --seed 7 --seconds 30 --trace 0
//
// The workload's inputs derive from --seed. The run measures for
// --seconds, checks every output it can, prints a human-readable table
// on standard error and, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, measured untraced; with --trace 1
// the run is made twice, untraced then traced, and the metrics are the
// per-layer ones from the traced run plus the tracing overhead. A
// per-layer metric reads 0 on a workload that does not exercise its
// layer; one the workload should measure but did not fails the run. A run
// record (host, metrics, metric map) and, when traced, the spans are
// written under .bench_build/perfbench/. Any output mismatch makes the
// command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is one run's parameters.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	nproc    int
	dir      string // scratch directory for stores, inside the checkout
	minOps   int    // operations a traced pass attempts at least
}

func (rc runConfig) window() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// tracedMinOps is the number of operations a traced pass of each
// workload attempts at least, however short the window, so that every
// per-layer percentile has its samples: 120 sweep jobs give a p90 of
// the job layer, 30 fleet jobs a median of the fleet layer.
var tracedMinOps = map[string]int{"sweep": 120, "fleet": 30}

// measuring reports whether a pass that began at start and has
// attempted n operations goes on: until the window has passed and n
// reaches minOps, but for at most three windows.
func (rc runConfig) measuring(start time.Time, n int) bool {
	el := time.Since(start)
	return el < rc.window() || (n < rc.minOps && el < 3*rc.window())
}

// report is what one measured pass of a workload produced.
type report struct {
	setupS    float64
	ops       []float64 // per-operation latency, seconds
	window    float64   // elapsed measurement window, seconds
	attempted int
	failed    int
	problems  []string
	layers    map[string]float64
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// surfdSetups is how many times a run starts its surfd; setup_s is the
// median. A start-up takes about 0.1 ms, so its median needs many
// samples to be steady.
const surfdSetups = 61

// timedSetups runs setup n times and returns the median wall time. The
// state of the last call is the one the run measures; teardown,
// untimed, releases each earlier one.
func timedSetups(n int, setup func() error, teardown func()) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// workloads maps each workload name to its runner; a nil tracer runs
// untraced.
var workloads = map[string]func(runConfig, *Tracer) (*report, error){
	"sweep": runSweep,
	"jobs":  runJobs,
	"fleet": runFleet,
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object on the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "sweep, jobs or fleet")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "measurement window per run, seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	correct, err := run(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// run measures one workload and prints its result line. It reports
// whether every output checked out.
func run(workload string, seed uint64, seconds float64, traced bool) (bool, error) {
	runner, ok := workloads[workload]
	if !ok {
		return false, fmt.Errorf("unknown workload %q (want sweep, jobs or fleet)", workload)
	}
	if seconds <= 0 {
		return false, fmt.Errorf("--seconds must be positive")
	}
	out := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	rc := runConfig{workload: workload, seed: seed, seconds: seconds, nproc: runtime.NumCPU(), dir: dir}
	host := hostRecord(dir)
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d seconds %g trace %v\n", workload, seed, seconds, traced)
	fmt.Fprintf(os.Stderr, "perfbench: host %s, NumCPU %d, GOMAXPROCS %d, %s, commit %s, store fs %s\n",
		host.CPUModel, host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.Commit, host.StoreFS)

	plain, err := runner(rc, nil)
	if err != nil {
		return false, err
	}
	res := Result{Metrics: map[string]Metric{}}
	e2e := endToEnd(plain)
	printTable(workload, "end to end, untraced", plain, e2e)
	passes := []*report{plain}
	if traced {
		tr := newTracer()
		trc := rc
		trc.minOps = tracedMinOps[workload]
		tracedRep, err := runner(trc, tr)
		if err != nil {
			return false, err
		}
		passes = append(passes, tracedRep)
		tracedE2E := endToEnd(tracedRep)
		for _, m := range endToEndMetrics {
			tracedRep.layers["trace_overhead."+m.Name] = tracedE2E[m.Name] - e2e[m.Name]
		}
		printTable(workload, "end to end, traced", tracedRep, tracedE2E)
		if miss := unmeasured(tracedRep, workload); len(miss) > 0 {
			return false, fmt.Errorf("the traced %s pass left %d per-layer metrics unmeasured (too few samples): %v", workload, len(miss), miss)
		}
		for _, m := range perLayerMetrics {
			res.Metrics[m.Name] = Metric{Value: tracedRep.layers[m.Name], Unit: m.Unit}
		}
		if err := writeTrace(filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", workload, seed)), tr.Spans()); err != nil {
			return false, err
		}
	} else {
		for _, m := range endToEndMetrics {
			res.Metrics[m.Name] = Metric{Value: e2e[m.Name], Unit: m.Unit}
		}
	}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, msg := range p.problems {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if err := writeRecord(filepath.Join(out, fmt.Sprintf("record-%s-seed%d-trace%v.json", workload, seed, traced)), host, rc, res); err != nil {
		return false, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// endToEnd derives the end-to-end metrics of one pass.
func endToEnd(r *report) map[string]float64 {
	p50, ok := percentile(r.ops, 0.5)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %d operations are too few for a median with %d beyond it\n", len(r.ops), minBeyond)
		p50 = median(r.ops)
	}
	out := map[string]float64{"setup_s": r.setupS, "op_p50_s": p50}
	if r.window > 0 {
		out["ops_per_s"] = float64(len(r.ops)) / r.window
	}
	return out
}

func printTable(workload, title string, r *report, e2e map[string]float64) {
	fmt.Fprintf(os.Stderr, "perfbench: %s — %s (%d operations, %d attempted, %d failed, failed_frac %.4f)\n",
		workload, title, len(r.ops), r.attempted, r.failed, frac(r.failed, r.attempted))
	for _, m := range endToEndMetrics {
		fmt.Fprintf(os.Stderr, "  %-22s %14.6g %s\n", m.Name, e2e[m.Name], m.Unit)
	}
	names := make([]string, 0, len(r.layers))
	for k := range r.layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", k, r.layers[k], unitOf(k))
	}
}

func frac(a, b int) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}

// writeRecord stores the run's host, inputs, result and metric map.
func writeRecord(path string, host Host, rc runConfig, res Result) error {
	data, err := json.MarshalIndent(map[string]any{
		"host":       host,
		"workload":   rc.workload,
		"seed":       rc.seed,
		"seconds":    rc.seconds,
		"result":     res,
		"metric_map": perLayerMetrics,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
