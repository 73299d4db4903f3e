// Command benchmark is the one place performance claims about this
// repository are measured: five workloads that each stress different layers
// of the simulator, end-to-end metrics a user of the simulator pays (host
// time and memory for a fixed amount of simulated work), correctness checks
// that the simulated statistics did not move, and a traced run that
// attributes the cost to layers. See README.md in this directory.
//
// Usage (from the repository root):
//
//	go run ./benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1]
//	                   [-scale f] [-out dir] [-selfcheck] [-describe]
//
// Every workload runs in a fresh child process, one at a time. Each metric
// is printed as `workload name unit value`; with one -workload the last line
// of standard output is a JSON object {correct, attempted, failed, metrics}.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// childEnv marks a process as a workload child; the value is unused.
const childEnv = "HT_BENCHMARK_CHILD"

// kernelsName is the pseudo-workload of the traced run's kernels pass.
const kernelsName = "kernels"

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	scale     float64
	out       string
	selfcheck bool
	describe  bool
	child     bool
}

// metric is one printed value. Timed metrics are the median over n reps
// with their quartiles; counts and single readings have n = 1.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// childResult is what a workload child hands back to the parent.
type childResult struct {
	Workload    string   `json:"workload"`
	Metrics     []metric `json:"metrics"`
	Fingerprint string   `json:"fingerprint"`
	Prefix      string   `json:"prefix,omitempty"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Failures    []string `json:"failures,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for hypertester.Config.Seed and the generator of each workload's NTAPI text")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "seconds each workload measures; a traced run's kernels each get 1/100 of it")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics, kernels pass, one span file per workload")
	fs.Float64Var(&o.scale, "scale", 1, "shrink every simulated window and pass count (smoke tests; numbers are not comparable)")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for the traced run's span files")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced set twice and compare the two sets against the bounds")
	fs.BoolVar(&o.describe, "describe", false, "print BENCHMARK.json")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || o.scale <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	var err error
	switch {
	case o.describe:
		_, err = stdout.Write(describe())
	case o.child:
		err = runChild(o, stdout)
	case o.selfcheck:
		err = runSelfcheck(o, stdout, stderr)
	default:
		err = runParent(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// ---- child: one workload in this process --------------------------------

func runChild(o options, stdout io.Writer) error {
	e := env{seed: o.seed, scale: o.scale}
	var res *childResult
	var err error
	if o.workload == kernelsName {
		res, err = kernelsChild(e, o)
	} else {
		var w *workload
		for _, c := range workloads() {
			if c.def.Name == o.workload {
				w = c
			}
		}
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		if w.threads > 0 {
			runtime.GOMAXPROCS(w.threads)
		}
		if o.trace == 1 {
			res, err = tracedChild(w, e, o)
		} else {
			res, err = untracedChild(w, e, o)
		}
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

func single(name, unit string, v float64) metric {
	return metric{Name: name, Unit: unit, Value: v, Q1: v, Q3: v, N: 1}
}

func timed(name, unit string, vals []float64) metric {
	q1, med, q3 := quartiles(vals)
	return metric{Name: name, Unit: unit, Value: med, Q1: q1, Q3: q3, N: len(vals)}
}

// collectChecks folds one rep's checks and fingerprint into the result. The
// fingerprint must repeat on every rep of a run: each rep is a fresh testbed
// fed the same generated input.
func (c *childResult) collectChecks(r *repResult, rep int, golden string) {
	checks := r.checks
	if c.Fingerprint == "" {
		c.Fingerprint, c.Prefix = r.fingerprint, r.prefix
		if golden != "" {
			checks = append(checks, check{"fingerprint equals testdata/golden.json", r.fingerprint == golden,
				fmt.Sprintf("got %s want %s", r.fingerprint, golden)})
		}
	} else {
		checks = append(checks, check{"fingerprint repeats", r.fingerprint == c.Fingerprint,
			fmt.Sprintf("rep %d %s, rep 0 %s", rep, short(r.fingerprint), short(c.Fingerprint))})
	}
	for _, ck := range checks {
		c.Attempted++
		if !ck.ok {
			c.Failed++
			c.Failures = append(c.Failures, fmt.Sprintf("rep %d: %s: %s", rep, ck.name, ck.detail))
		}
	}
}

// goldenFor returns the pinned fingerprint, which exists for seed 1 at full
// scale only.
func goldenFor(name string, e env) string {
	if e.seed != 1 || e.scale != 1 {
		return ""
	}
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "unreadable golden.json: " + err.Error()
	}
	return g[name]
}

// Set-up is short, so its median needs more samples than the reps alone
// give: a run times up to maxSetups set-ups while the extra ones fit in
// 1/setupShare of the time it measures.
const (
	maxSetups  = 25
	setupShare = 15
)

func untracedChild(w *workload, e env, o options) (*childResult, error) {
	res := &childResult{Workload: w.def.Name}
	var setup, wall, cpu, rate, allocs, peak []float64
	var work uint64
	budget := time.Duration(o.seconds * float64(time.Second))
	golden := goldenFor(w.def.Name, e)
	var measured time.Duration
	for rep := 0; rep < 3 || measured < budget; rep++ {
		r, err := w.rep(e, nil)
		if err != nil {
			return nil, err
		}
		peak = append(peak, peakRSSMB())
		measured += time.Duration(r.cost.wall * float64(time.Second))
		work = r.work
		setup = append(setup, r.setup)
		wall = append(wall, r.cost.wall)
		cpu = append(cpu, r.cost.cpu)
		rate = append(rate, float64(r.work)/r.cost.wall)
		allocs = append(allocs, float64(r.cost.mallocs)/(float64(r.work)/1000))
		res.collectChecks(r, rep, golden)
	}
	extra := time.Now()
	for len(setup) < maxSetups && time.Since(extra) < budget/setupShare {
		s, err := w.setupOnly(e)
		if err != nil {
			return nil, err
		}
		setup = append(setup, s)
	}
	rateM := timed("work_per_s", "1/s", rate)
	rateM.Note = fmt.Sprintf("base=%s work=%d", w.base, work)
	res.Metrics = []metric{
		timed("setup_s", "s", setup),
		timed("wall_s", "s", wall),
		timed("cpu_s", "s", cpu),
		rateM,
		timed("allocs_per_kwork", "1/kwork", allocs),
		timed("peak_mem_mb", "MB", peak),
		single("fail_ratio", "ratio", float64(res.Failed)/float64(res.Attempted)),
	}
	return res, nil
}

// tracedChild runs the workload once untraced (the baseline of
// bench.span_overhead and obs.trace_overhead), once with the driver
// recording spans, and once more with obs lifecycle tracing over the first
// 1/16 of the window.
func tracedChild(w *workload, e env, o options) (*childResult, error) {
	res := &childResult{Workload: w.def.Name}
	plain, err := w.rep(e, nil)
	if err != nil {
		return nil, err
	}
	res.collectChecks(plain, 0, goldenFor(w.def.Name, e))
	rec := newRecorder()
	rec.rep = 1
	var r *repResult
	rec.do("rep", func() { r, err = w.rep(e, rec) })
	if err != nil {
		return nil, err
	}
	res.collectChecks(r, 1, "")
	if err := rec.writeChromeTrace(filepath.Join(o.out, "trace-"+w.def.Name+".json"), w.def.Name); err != nil {
		return nil, err
	}

	v := r.layer
	v["allocs_per_kwork"] = float64(r.cost.mallocs) / (float64(r.work) / 1000)
	v["ntapi.parse_ms"] = rec.totalMs("ntapi.parse")
	v["compiler.compile_ms"] = rec.totalMs("compiler.compile")
	v["verify.analyze_ms"] = rec.totalMs("verify.analyze")
	if load := rec.totalMs("hypertester.load"); load > 0 {
		v["hypertester.deploy_ms"] = math.Max(0, load-v["ntapi.parse_ms"]-v["compiler.compile_ms"])
	}
	v["testbed.wire_ms"] = rec.totalMs("testbed.wire")
	v["run.warmup_ms"] = rec.totalMs("run.warmup")
	v["run.window_ms"] = rec.totalMs("run.window")
	sl := rec.durationsMs("run.slice")
	v["run.slice_p50_ms"] = percentile(sl, 50)
	v["run.slice_p90_ms"] = percentile(sl, 90)
	v["htpr.collect_ms"] = rec.totalMs("htpr.collect")
	v["go.gc_cycles"] = float64(r.cost.gcCycles)
	v["go.gc_pause_ms"] = r.cost.gcPauseMs
	v["go.heap_alloc_mb"] = r.cost.heapMB
	v["bench.span_overhead"] = r.cost.wall / plain.cost.wall
	if w.threads > 0 {
		// What the pinned workload costs with every CPU's thread in play.
		prev := runtime.GOMAXPROCS(runtime.NumCPU())
		multi, err := w.rep(e, nil)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
		res.collectChecks(multi, 2, "")
		v["engine.multicore_wall_ratio"] = multi.cost.wall / plain.cost.wall
	}

	if w.obsSegment != nil {
		seg, err := w.obsSegment(e)
		if err != nil {
			return nil, err
		}
		for name, val := range seg.layer {
			v[name] = val
		}
		// Host seconds per simulated second with obs on, over the same
		// with it off.
		v["obs.trace_overhead"] = seg.wallPer / (plain.windowWall / plain.windowSim)
	}
	for _, def := range layerMetrics {
		res.Metrics = append(res.Metrics, single(def.Name, def.Unit, v[def.Name]))
	}
	return res, nil
}

func kernelsChild(e env, o options) (*childResult, error) {
	budget := time.Duration(o.seconds * o.scale / 100 * float64(time.Second))
	vals, err := runKernels(e, budget)
	if err != nil {
		return nil, err
	}
	res := &childResult{Workload: kernelsName}
	for _, def := range kernelMetrics {
		res.Metrics = append(res.Metrics, single(def.Name, def.Unit, vals[def.Name]))
	}
	return res, nil
}

// ---- parent: children one at a time --------------------------------------

func spawn(o options, name string, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-out", o.out)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("workload %s: reading result: %w", name, err)
	}
	return &res, nil
}

func selected(o options) ([]string, error) {
	var names []string
	for _, w := range workloadDefs {
		if o.workload == "" || o.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return names, nil
}

// runSet runs the selected workloads (and, traced, the kernels pass), prints
// every metric and returns the results in order.
func runSet(o options, stdout, stderr io.Writer) ([]*childResult, error) {
	names, err := selected(o)
	if err != nil {
		return nil, err
	}
	if o.trace == 1 {
		names = append(names, kernelsName)
	}
	var set []*childResult
	for _, name := range names {
		res, err := spawn(o, name, stderr)
		if err != nil {
			return nil, err
		}
		printResult(stdout, res)
		set = append(set, res)
	}
	// The LP engine's counters at the end of its window equal the
	// sequential engine's at the same simulated instant.
	var seq, par *childResult
	for _, r := range set {
		switch r.Workload {
		case "linerate64":
			seq = r
		case "linerate64-par":
			par = r
		}
	}
	if seq != nil && par != nil {
		par.Attempted++
		if seq.Prefix != par.Fingerprint {
			par.Failed++
			fmt.Fprintf(stdout, "linerate64-par FAILED fingerprint %s differs from linerate64 at half window %s\n",
				short(par.Fingerprint), short(seq.Prefix))
		}
	}
	return set, nil
}

func printResult(w io.Writer, r *childResult) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %s %s", r.Workload, m.Name, m.Unit, strconv.FormatFloat(m.Value, 'g', -1, 64))
		if m.N > 1 {
			fmt.Fprintf(w, " q1=%.6g q3=%.6g n=%d", m.Q1, m.Q3, m.N)
		}
		if m.Note != "" {
			fmt.Fprintf(w, " %s", m.Note)
		}
		fmt.Fprintln(w)
	}
	if r.Fingerprint != "" {
		fmt.Fprintf(w, "%s sim_fingerprint sha256 %s\n", r.Workload, r.Fingerprint)
	}
	if r.Prefix != "" {
		fmt.Fprintf(w, "%s sim_fingerprint_half sha256 %s\n", r.Workload, r.Prefix)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s FAILED %s\n", r.Workload, f)
	}
}

func failures(set []*childResult) (attempted, failed int) {
	for _, r := range set {
		attempted += r.Attempted
		failed += r.Failed
	}
	return
}

func runParent(o options, stdout, stderr io.Writer) error {
	set, err := runSet(o, stdout, stderr)
	if err != nil {
		return err
	}
	attempted, failed := failures(set)
	if o.workload != "" {
		// One workload: the machine-readable result is the last line. An
		// untraced run reports the gated end-to-end metrics, a traced
		// run every per-layer metric.
		want := endToEnd
		if o.trace == 1 {
			want = append(append([]metricDef(nil), layerMetrics...), kernelMetrics...)
		}
		got := map[string]metric{}
		for _, r := range set {
			for _, m := range r.Metrics {
				got[m.Name] = m
			}
		}
		type value struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		metrics := map[string]value{}
		for _, def := range want {
			metrics[def.Name] = value{got[def.Name].Value, def.Unit}
		}
		line, err := json.Marshal(map[string]any{
			"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed > 0 {
		return fmt.Errorf("correctness checks failed: %d of %d", failed, attempted)
	}
	return nil
}

// runSelfcheck runs the untraced set twice and holds the second set to the
// first by the benchmark's own bounds: the tool for "two sets of runs of the
// same code agree".
func runSelfcheck(o options, stdout, stderr io.Writer) error {
	o.trace = 0
	var sets [2][]*childResult
	for i := range sets {
		fmt.Fprintf(stdout, "# set %d\n", i+1)
		set, err := runSet(o, stdout, stderr)
		if err != nil {
			return err
		}
		sets[i] = set
	}
	bad := 0
	fmt.Fprintln(stdout, "# selfcheck: workload metric set1 set2 rel_diff bound verdict")
	for i, a := range sets[0] {
		b := sets[1][i]
		bm := map[string]metric{}
		for _, m := range b.Metrics {
			bm[m.Name] = m
		}
		am := map[string]metric{}
		for _, m := range a.Metrics {
			am[m.Name] = m
		}
		for _, def := range endToEnd {
			x, y := am[def.Name].Value, bm[def.Name].Value
			worse := (y - x) / x
			if def.Better == "higher" {
				worse = (x - y) / x
			}
			verdict := "ok"
			if worse > def.Bound {
				verdict = "EXCEEDED"
				bad++
			}
			fmt.Fprintf(stdout, "selfcheck %s %s %.6g %.6g %+.4f %.2f %s\n", a.Workload, def.Name, x, y, worse, def.Bound, verdict)
		}
		// Counts of the deterministic simulation repeat exactly.
		verdict := "ok"
		if a.Fingerprint != b.Fingerprint || am["work_per_s"].Note != bm["work_per_s"].Note {
			verdict = "DIFFERS"
			bad++
		}
		fmt.Fprintf(stdout, "selfcheck %s sim_fingerprint %s %s %s\n", a.Workload, short(a.Fingerprint), short(b.Fingerprint), verdict)
	}
	_, f1 := failures(sets[0])
	_, f2 := failures(sets[1])
	if f1+f2 > 0 {
		return fmt.Errorf("correctness checks failed: %d", f1+f2)
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d comparisons outside their bound", bad)
	}
	return nil
}
