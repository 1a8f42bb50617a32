// Command perfbench is CORDOBA's end-to-end benchmark. It runs one seeded
// workload for a fixed time, checks every output it times, and prints one
// JSON object as the last line of standard output:
//
//	perfbench --workload explore-flat --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 a separate traced run reports the
// per-layer metrics, timed from spans around calls into each module's
// public functions. Nothing inside the program is instrumented. See
// README.md for the workloads, the metrics and the reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload invocation fills in.
type run struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string // scratch directory inside the checkout

	attempted, failed int64
	problems          []string
	metrics           map[string]metric
	// counters are the exact work counters of one unit of work (an
	// exploration, a search round, a request-mix round). They must repeat
	// exactly across units, runs and runs with the same seed.
	counters map[string]int64
	spans    *spanLog
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// fail records a failed output check; the run then reports correct=false.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	r.problems = append(r.problems, msg)
}

// pinCounters records one unit's exact counters under prefix, failing the
// run where an earlier unit with the same prefix counted differently.
func (r *run) pinCounters(prefix string, c map[string]int64) {
	if r.counters == nil {
		r.counters = map[string]int64{}
	}
	for k, v := range c {
		k = prefix + k
		if old, ok := r.counters[k]; ok && old != v {
			r.fail("work counter %s = %d, an earlier unit counted %d", k, v, old)
		}
		r.counters[k] = v
	}
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order, with their units.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"op_ms", "ms"}, {"ops_per_s", "1/s"}, {"alloc_mb", "MB"},
}

var perLayer = [][2]string{
	{"accel.cost.calls", "count"}, {"accel.cost.ns", "ns"}, {"accel.layer_evals", "count"},
	{"accel.shape_profile.calls", "count"}, {"accel.shape_profile.us", "us"},
	{"accel.kernel_cost.calls", "count"}, {"accel.kernel_cost.us", "us"},
	{"carbon.embodied.calls", "count"}, {"carbon.embodied.us", "us"},
	{"workload.evaluate.calls", "count"}, {"workload.evaluate.ns", "ns"},
	{"pareto.front.ns", "ns"}, {"pareto.offer.ns", "ns"},
	{"dse.cells", "count"}, {"dse.compile.us", "us"}, {"dse.materialize.ms", "ms"},
	{"dse.memo.hits", "count"}, {"dse.memo.misses", "count"}, {"dse.memo.evictions", "count"},
	{"dse.prepruned", "count"}, {"dse.offered", "count"}, {"dse.kept", "count"}, {"dse.pruned", "count"},
	{"dse.untraced_1w_s", "s"}, {"dse.stages_s", "s"}, {"dse.unattributed_s", "s"},
	{"dse.surrogate.evals", "count"}, {"dse.surrogate.generations", "count"}, {"dse.surrogate.skipped", "count"},
	{"dse.surrogate.generation_ms", "ms"}, {"dse.surrogate.model_s", "s"},
	{"dse.surrogate.pricing_s", "s"}, {"dse.surrogate.search_1w_s", "s"}, {"dse.surrogate.hv_ratio_min", "ratio"},
	{"server.dse.ms", "ms"}, {"server.accounting.ms", "ms"}, {"server.job_submit.ms", "ms"},
	{"server.job_result.ms", "ms"}, {"server.cache.hits", "count"}, {"server.cache.misses", "count"},
	{"server.decode.us", "us"}, {"server.marshal.us", "us"}, {"server.requests", "count"},
	{"serve.dse_p50_ms", "ms"}, {"serve.dse_p90_ms", "ms"}, {"serve.job_p50_s", "s"}, {"serve.dse_requests", "count"},
	{"job.queue_wait.ms", "ms"}, {"job.run.ms", "ms"}, {"job.checkpoints", "count"}, {"job.submitted", "count"},
	{"client.events", "count"}, {"client.wait_lag.ms", "ms"},
	{"trace.overhead_s", "s"}, {"trace.timer_ns", "ns"},
}

// reported selects the metrics the mode reports: every end-to-end metric
// with tracing off, every per-layer metric with it on (0 where the workload
// does not exercise the layer).
func (r *run) reported() (map[string]metric, error) {
	names := endToEnd
	if r.trace {
		names = perLayer
	}
	out := make(map[string]metric, len(names))
	for _, nu := range names {
		m, ok := r.metrics[nu[0]]
		switch {
		case !ok && r.trace:
			m = metric{Value: 0, Unit: nu[1]}
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", nu[0])
		case m.Unit != nu[1]:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", nu[0], m.Unit, nu[1])
		}
		out[nu[0]] = m
	}
	return out, nil
}

var workloads = map[string]func(*run) error{
	"explore-flat":      exploreFlat,
	"explore-partition": explorePartition,
	"search-surrogate":  searchSurrogate,
	"serve-mix":         serveMix,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured run length in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		dir     = flag.String("dir", ".bench_build", "scratch directory")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, ","))
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		dir:     *dir,
		metrics: map[string]metric{},
	}
	if r.trace {
		r.spans = newSpanLog()
	}
	reportMachine()
	if err := fn(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		os.Exit(1)
	}
	if err := r.compareCounters(*name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.spans != nil {
		path := filepath.Join(r.dir, "spans-"+*name+".jsonl")
		if err := r.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", r.spans.len(), path)
	}
	keys := make([]string, 0, len(r.counters))
	for k := range r.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("counter %s = %d\n", k, r.counters[k])
	}
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("measured %s = %g %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	fmt.Printf("operations: attempted %d, failed %d\n", r.attempted, r.failed)
	metrics, err := r.reported()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// compareCounters checks this run's exact work counters against those an
// earlier run with the same workload, seed and mode stored in the scratch
// directory, and stores them for the next run when none exist yet.
func (r *run) compareCounters(name string) error {
	if len(r.counters) == 0 {
		return nil
	}
	dir := filepath.Join(r.dir, "counters")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t.json", name, r.seed, r.trace))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]int64
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		for k, v := range prev {
			if r.counters[k] != v {
				r.fail("work counter %s = %d, an earlier run with seed %d had %d", k, r.counters[k], r.seed, v)
			}
		}
		return nil
	}
	b, err := json.Marshal(r.counters)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Reference machine behind README.md's figures.
const (
	refProcs = 2
	refGoVer = "go1.24.0"
	refCPU   = "Intel(R) Xeon(R) Processor"
)

// reportMachine prints the machine the run measures, warning where it
// differs from the machine behind the README's reference figures.
func reportMachine() {
	model := cpuModel()
	fmt.Printf("machine: GOMAXPROCS=%d nproc=%d cpu=%q go=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), model, runtime.Version())
	if runtime.GOMAXPROCS(0) != refProcs || runtime.NumCPU() != refProcs ||
		runtime.Version() != refGoVer || model != refCPU {
		fmt.Fprintf(os.Stderr, "perfbench: warning: machine differs from the README reference (GOMAXPROCS=%d nproc=%d cpu %q %s); compare figures only within one machine\n",
			refProcs, refProcs, refCPU, refGoVer)
	}
}

// cpuModel reads the CPU model name; empty where the platform hides it.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
