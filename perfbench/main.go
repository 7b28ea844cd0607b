// Command perfbench is the repository benchmark. It drives the
// simulator, the attack and the experiment platform through their Go
// APIs from outside — it changes no production package — and measures
// four workloads:
//
//	covert   steady-state resilient bit reading (core, cpu, bpu, sched, leakage)
//	search   the one-time pre-attack block searches (core, cpu, bpu)
//	suite    the quick suite through campaign + runstore on an engine pool
//	service  a closed loop of small jobs through an in-process svc.Service
//
// Usage, from the repository root (run.py builds, then runs the binary):
//
//	python3 perfbench/run.py --workload covert --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it runs the workload once, untraced, and reports the
// end-to-end metrics. With --trace 1 it runs the workload untraced and
// then again traced (host-time spans around the benchmark's own calls
// into each layer), checks that both produced the same simulated-output
// digest, writes the spans out and reports the per-layer metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit status is nonzero when a correctness check fails. See
// README.md for the metric definitions and how to cite them.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// metricDef names one metric of the JSON result. The lists below are
// the ones BENCHMARK.json declares; the self-test keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd metrics are defined on every workload and are never zero.
// wall_s is the host time of the timed phase; on service, whose job
// count is fixed, it is settled jobs over jobs_per_s. cpu_s, peak_rss_mb
// and the figures that apply to one workload only stay in the report.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
}

// perLayer metrics come from the traced run. A workload that bypasses a
// layer reports 0 for it (no samples).
var perLayer = []metricDef{
	// covert: spans from the before/after/EpisodeHook episode hooks.
	{"core.prime_ns_p50", "ns"},
	{"core.prime_ns_per_branch", "ns"},
	{"sched.step_ns_p50", "ns"},
	{"noise.step_ns_p50", "ns"},
	{"core.probe_ns_p50", "ns"},
	{"core.readbit_ns_p50", "ns"},
	{"core.readbit_ns_p90", "ns"},
	{"leakage.observe_ns_p50", "ns"},
	{"core.episodes_per_bit", "ratio"},
	{"core.session_setup_s", "s"},
	// search.
	{"core.multi_search_s.Skylake", "s"},
	{"core.multi_search_s.Haswell", "s"},
	{"core.multi_search_s.SandyBridge", "s"},
	{"core.analyze_block_ns_p50", "ns"},
	{"core.find_block_s", "s"},
	{"core.stable_block_ratio", "ratio"},
	// suite: spans from Runner.OnStart/OnDone, campaign.Run and
	// Archiver.Write.
	{"experiments.jpeg_s", "s"},
	{"experiments.fig4_s", "s"},
	{"experiments.table2_s", "s"},
	{"engine.task_wait_s_max", "s"},
	{"engine.worker_idle_s", "s"},
	{"campaign.self_s", "s"},
	{"runstore.write_s", "s"},
	// service: spans from Submit, Config.Isolate and the settle event.
	{"svc.submit_ns_p50", "ns"},
	{"svc.submit_ns_p90", "ns"},
	{"svc.queue_s_p50", "s"},
	{"svc.run_s_p50", "s"},
	{"svc.shed_ratio", "ratio"},
	// Deterministic work counts of the timed phase (covert, search),
	// read once at the end from public getters, and the host cost per
	// simulated branch they give.
	{"cpu.sim_branches", "count"},
	{"cpu.sim_cycles", "count"},
	{"bpu.commits", "count"},
	{"bpu.mispredicts", "count"},
	{"core.episodes", "count"},
	{"cpu.host_ns_per_sim_branch", "ns"},
	{"trace.overhead_ratio", "ratio"},
}

// reportNames are the end-to-end figures the human-readable report
// prints for every workload, "n/a" where one does not apply. Of these,
// only endToEnd go into the JSON result.
var reportNames = []string{
	"setup_s", "wall_s", "bits_per_s", "bit_error_rate", "sim_branches_per_s",
	"critical_task_s", "task_wall_sum_s", "job_latency_p50_s", "job_latency_p90_s",
	"jobs_per_s", "failed_ratio", "cpu_s", "peak_rss_mb",
}

// options is one invocation's settings.
type options struct {
	seed    uint64
	seconds int
	dir     string // scratch directory for journals and archives
}

// workload is one named benchmark input set. run performs the set-up
// (several times, keeping the last) and the timed phase; tr is nil on
// the untraced run.
type workload struct {
	name string
	run  func(o options, tr *tracer) *outcome
}

var workloads = []workload{
	{"covert", runCovert},
	{"search", runSearch},
	{"suite", runSuite},
	{"service", runService},
}

// measure is one reported number.
type measure struct {
	value   float64
	unit    string
	samples int
	note    string
}

// outcome is what one run of a workload produced.
type outcome struct {
	setups    []time.Duration // one per set-up repetition
	wall      time.Duration   // host time of the timed phase
	cpu       time.Duration   // process CPU time (user+sys) of the timed phase
	attempted int
	failed    int
	report    map[string]measure // end-to-end figures for the report
	notes     []string           // extra report lines (per-cell figures)
	layers    map[string]measure // per-layer metrics (traced run only)
	digest    hash.Hash          // simulated outputs
	problems  []string           // failed correctness checks
}

func newOutcome() *outcome {
	return &outcome{
		report: map[string]measure{},
		layers: map[string]measure{},
		digest: sha256.New(),
	}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// hash folds simulated outputs into the digest.
func (o *outcome) hash(format string, args ...any) {
	fmt.Fprintf(o.digest, format+"\n", args...)
}

func (o *outcome) sum() string { return fmt.Sprintf("sha256:%x", o.digest.Sum(nil)) }

// finish fills the report figures every workload shares.
func (o *outcome) finish() {
	o.report["setup_s"] = measure{quantile(o.setups, 0.5).Seconds(), "s", len(o.setups), "median of set-up repetitions"}
	o.report["wall_s"] = measure{o.wall.Seconds(), "s", 1, "host time of the timed phase"}
	o.report["cpu_s"] = measure{o.cpu.Seconds(), "s", 1, "process CPU time of the timed phase"}
	ratio := 0.0
	if o.attempted > 0 {
		ratio = float64(o.failed) / float64(o.attempted)
	}
	if _, ok := o.report["failed_ratio"]; !ok {
		o.report["failed_ratio"] = measure{ratio, "ratio", o.attempted, ""}
	}
	o.report["peak_rss_mb"] = measure{peakRSSMB(), "MB", 1, "process high-water mark"}
}

// cpuTime is the process's CPU time so far, user plus system, over all
// threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timeSetup runs build reps times, timing each, and returns the last
// result; earlier ones are torn down with drop. The garbage of the
// discarded repetitions is collected and returned to the OS before the
// timed phase starts, so it moves neither the timed phase nor the
// memory high-water mark.
func timeSetup[T any](o *outcome, reps int, build func(rep int) (T, error), drop func(T)) (T, error) {
	var last T
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		v, err := build(rep)
		o.setups = append(o.setups, time.Since(t0))
		if err != nil {
			return last, err
		}
		if rep < reps-1 {
			drop(v)
			runtime.GC()
		}
		last = v
	}
	debug.FreeOSMemory()
	return last, nil
}

// phase is a running timed phase.
type phase struct {
	start time.Time
	cpu0  time.Duration
}

func startPhase() *phase { return &phase{cpu0: cpuTime(), start: time.Now()} }

// endPhase closes the timed phase.
func (o *outcome) endPhase(p *phase) {
	o.wall = time.Since(p.start)
	o.cpu = cpuTime() - p.cpu0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "covert, search, suite or service")
	seed := fs.Uint64("seed", 1, "workload seed: inputs derive from it")
	seconds := fs.Int("seconds", 10, "timed-phase budget; sets the amount of work")
	traceFlag := fs.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
	expect := fs.String("expect-digest", "", "fail unless the simulated-output digest equals this")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload covert|search|suite|service, --seconds >= 1, --trace 0|1")
		return 2
	}
	res, err := bench(*w, *seed, *seconds, *traceFlag == 1, *expect, *outDir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench runs one workload (twice with tracing) and prints its report.
func bench(w workload, seed uint64, seconds int, traced bool, expect, outDir string, stdout io.Writer) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)
	opts := options{seed: seed, seconds: seconds, dir: scratch}

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", w.name, seed, seconds, traced)
	untracedOpts, err := withDir(opts, "untraced")
	if err != nil {
		return result{}, err
	}
	base := w.run(untracedOpts, nil)
	base.finish()
	printReport(stdout, w.name, base)
	problems := base.problems
	digest := base.sum()
	fmt.Fprintf(stdout, "digest %s %s\n", w.name, digest)
	if expect != "" && expect != digest {
		problems = append(problems, fmt.Sprintf("digest %s, expected %s", digest, expect))
	}

	res := result{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]jsonMetric{}}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = jsonMetric{base.report[m.name].value, m.unit}
		}
	} else {
		tr := newTracer()
		tracedOpts, err := withDir(opts, "traced")
		if err != nil {
			return result{}, err
		}
		t := w.run(tracedOpts, tr)
		t.finish()
		if d := t.sum(); d != digest {
			problems = append(problems, fmt.Sprintf("traced run digest %s differs from untraced %s", d, digest))
		}
		problems = append(problems, t.problems...)
		t.layers["trace.overhead_ratio"] = measure{t.report["wall_s"].value / base.report["wall_s"].value, "ratio", 1, ""}
		if b := t.layers["cpu.sim_branches"].value; b > 0 {
			t.layers["cpu.host_ns_per_sim_branch"] = measure{base.report["wall_s"].value * 1e9 / b, "ns", int(b), "untraced wall"}
		}
		spans := filepath.Join(outDir, "spans-"+w.name+".tsv")
		if err := tr.write(spans); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(tr.spans), spans)
		for _, m := range perLayer {
			v, ok := t.layers[m.name]
			if ok && v.unit != m.unit {
				return result{}, fmt.Errorf("layer metric %s measured in %s, declared %s", m.name, v.unit, m.unit)
			}
			if ok {
				fmt.Fprintf(stdout, "layer %-32s %14.6g %-5s n=%d\n", m.name, v.value, m.unit, v.samples)
			}
			res.Metrics[m.name] = jsonMetric{v.value, m.unit}
		}
		for name := range t.layers {
			if !declared(name) {
				return result{}, fmt.Errorf("layer metric %s is not declared", name)
			}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is %v", name, m.Value))
			m.Value = 0
			res.Metrics[name] = m
		}
	}
	for _, p := range problems {
		fmt.Fprintf(stdout, "FAIL %s: %s\n", w.name, p)
	}
	res.Correct = len(problems) == 0
	return res, nil
}

func declared(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

// withDir gives a run its own scratch subdirectory.
func withDir(o options, sub string) (options, error) {
	o.dir = filepath.Join(o.dir, sub)
	return o, os.MkdirAll(o.dir, 0o755)
}

// printReport prints every end-to-end figure with its unit and sample
// count.
func printReport(w io.Writer, name string, o *outcome) {
	for _, n := range reportNames {
		m, ok := o.report[n]
		if !ok {
			fmt.Fprintf(w, "e2e %-8s %-20s n/a\n", name, n)
			continue
		}
		fmt.Fprintf(w, "e2e %-8s %-20s %14.6g %-6s n=%d %s\n", name, n, m.value, m.unit, m.samples, m.note)
	}
	for _, line := range o.notes {
		fmt.Fprintf(w, "    %s\n", line)
	}
	fmt.Fprintf(w, "ops %s attempted=%d failed=%d\n", name, o.attempted, o.failed)
}
