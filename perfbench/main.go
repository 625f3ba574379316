// Command perfbench is positlab's benchmark. It drives the public
// functions of the reproduction's layers from outside — matgen, arith,
// linalg, scaling, solvers, experiments, runner, service and jobs — on
// three workloads, checks every output against the committed results,
// and reports calibrated end-to-end metrics (tracing off) or per-layer
// metrics (a separate traced run). See README.md in this directory.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload repro32 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A readable report goes to
// standard error and, in full, to <build-dir>/reports.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// setupChildren is how many extra processes each untraced run
	// starts to sample setup_s; with the run's own set-up that makes
	// seven samples, of which the median is reported.
	setupChildren = 6
	// minPasses is the fewest timed passes a run makes, however short
	// --seconds is.
	minPasses = 3
)

// config is what a workload needs to set itself up.
type config struct {
	workload string
	seed     uint64
	root     string // repository root (the working directory)
	tmp      string // private scratch directory under the build dir
	jobsDir  string // serve: journal directory to replay
}

// bench is one set-up workload.
type bench interface {
	// pass runs one unit of the workload's fixed work and checks its
	// outputs. tr is nil in the untraced run.
	pass(tr *tracer) (passOut, error)
	// layers runs the traced run's extra probes (phase replay, kernel
	// probes), checks the replay, and adds the per-layer figures to lm,
	// calibrating times with calib (ms).
	layers(tr *tracer, lm layerMetrics, calib float64) (passOut, error)
	close() error
}

// passOut is what one pass reports.
type passOut struct {
	attempted, failed int
	errs              []string
	root              int                  // traced: span id of the pass
	ops               uint64               // exact format operations (traced repro passes, every serve round)
	iters             int                  // exact solver iterations (traced)
	lat               []float64            // per-request latencies, raw ms (serve)
	kind              []string             // route of each latency, with its cache outcome (serve)
	samples           map[string][]float64 // raw ms samples of per-layer metrics, by name
}

// sample adds raw ms samples to the per-layer metric name.
func (p *passOut) sample(name string, ms ...float64) {
	if p.samples == nil {
		p.samples = map[string][]float64{}
	}
	p.samples[name] = append(p.samples[name], ms...)
}

// merge adds q's counts and samples to p.
func (p *passOut) merge(q passOut) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.errs = append(p.errs, q.errs...)
	p.ops += q.ops
	p.iters += q.iters
	p.lat = append(p.lat, q.lat...)
	p.kind = append(p.kind, q.kind...)
	for _, name := range sortedKeys(q.samples) {
		p.sample(name, q.samples[name]...)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetrics collects the traced run's per-layer figures: the ones
// every workload reports (the contract in BENCHMARK.json) and the
// workload-specific rest, which go to the report only.
type layerMetrics map[string]metric

func (l layerMetrics) set(name string, v float64, unit string) { l[name] = metric{v, unit} }

// layerNames are the per-layer metrics of the traced run's result line,
// the ones every workload measures, in the order BENCHMARK.json lists
// them. The workload-specific rest goes to the report.
var layerNames = []string{
	"matgen.generate_ms", "arith.table_build_ms", "arith.ops",
	"arith.ns_per_op.posit32e2", "arith.ns_per_op.posit16e1",
	"arith.dot_ns_per_elem.posit32e2", "arith.dot_ns_per_elem.posit16e1",
	"arith.axpy_ns_per_elem.posit32e2", "arith.axpy_ns_per_elem.posit16e1",
	"arith.matvec_ns_per_nnz.posit32e2", "arith.matvec_ns_per_nnz.posit16e1",
	"arith.trailing_update_ns_per_elem.posit32e2", "arith.trailing_update_ns_per_elem.posit16e1",
	"arith.kernel_bytes", "arith.kernel_ops_per_byte",
	"solvers.solve_ms", "solvers.backward_error_ms", "solvers.iters",
	"host.calib_ms", "host.pass_raw_ms", "trace.overhead_ms", "trace.coverage",
}

func main() { os.Exit(run()) }

func run() int {
	start := time.Now()
	workload := flag.String("workload", "", "workload: repro32, repro16 or serve")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	buildDir := flag.String("build-dir", ".bench_build", "directory for reports, traces and scratch files")
	setupChild := flag.Bool("setup-child", false, "internal: time one set-up and exit")
	jobsDir := flag.String("jobs-dir", "", "internal: journal directory of a set-up child")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (repro32, repro16, serve), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp := filepath.Join(*buildDir, "tmp", fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	cfg := config{workload: *workload, seed: *seed, root: root, tmp: tmp, jobsDir: *jobsDir}

	if *setupChild {
		return childSetup(cfg, start)
	}
	if cfg.workload == "serve" {
		// The journal every serve set-up replays; writing it is not
		// part of set-up, so the clock restarts after it.
		cfg.jobsDir = filepath.Join(tmp, "jobs")
		if err := makeSeedJournal(seedJournal(cfg)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: seed journal:", err)
			return 1
		}
		if err := copyJournal(seedJournal(cfg), cfg.jobsDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: seed journal:", err)
			return 1
		}
		start = time.Now()
	}
	r := &session{cfg: cfg, seconds: time.Duration(*seconds) * time.Second, buildDir: *buildDir, start: start}
	var res result
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(cfg config, tr *tracer) (bench, error){
	"repro32": setupRepro,
	"repro16": setupRepro,
	"serve":   setupServe,
}

// result is the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type session struct {
	cfg      config
	seconds  time.Duration
	buildDir string
	start    time.Time

	attempted, failed int
	errs              []string
}

func (r *session) note(p passOut) {
	r.attempted += p.attempted
	r.failed += p.failed
	if len(r.errs) < 10 {
		r.errs = append(r.errs, p.errs...)
	}
}

// timed runs calibrated passes until d has passed (and at least
// minPasses), returning each pass with its raw and calibrated time.
// The calibration loop runs before the first pass and after every
// pass; a pass is scaled by the mean of the two around it.
func (r *session) timed(b bench, d time.Duration, tr *tracer) (outs []passOut, raw, cal []float64, calib []float64, err error) {
	deadline := time.Now().Add(d)
	calib = []float64{calibrate()}
	for len(raw) < minPasses || time.Now().Before(deadline) {
		t := time.Now()
		p, err := b.pass(tr)
		ms := sinceMS(t)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		c := calibrate()
		raw = append(raw, ms)
		cal = append(cal, scale(ms, (calib[len(calib)-1]+c)/2))
		calib = append(calib, c)
		outs = append(outs, p)
		r.note(p)
	}
	return outs, raw, cal, calib, nil
}

// untraced is the end-to-end run.
func (r *session) untraced() (result, error) {
	b, err := workloads[r.cfg.workload](r.cfg, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	setupRaw := sinceMS(r.start) / 1000
	c0 := calibrate()
	setups := []float64{scale(setupRaw, c0)}
	setupsRaw := []float64{setupRaw}
	for i := 0; i < setupChildren; i++ {
		raw, c, err := r.spawnSetup(i)
		if err != nil {
			return result{}, fmt.Errorf("set-up child: %w", err)
		}
		setups = append(setups, scale(raw, c))
		setupsRaw = append(setupsRaw, raw)
	}
	warm, err := b.pass(nil)
	if err != nil {
		return result{}, fmt.Errorf("warm-up pass: %w", err)
	}
	r.note(warm)
	outs, raw, cal, calib, err := r.timed(b, r.seconds, nil)
	if err != nil {
		return result{}, err
	}

	m := map[string]metric{
		"setup_s":    {median(setups), "s"},
		"pass_ms":    {median(cal), "ms"},
		"max_rss_mb": {maxRSSMB(), "MB"},
	}
	more := map[string]metric{
		"fail_ratio":       {float64(r.failed) / float64(max(r.attempted, 1)), "1"},
		"pass_ms_q1":       {quantile(cal, 0.25), "ms"},
		"pass_ms_q3":       {quantile(cal, 0.75), "ms"},
		"host.pass_raw_ms": {median(raw), "ms"},
		"host.calib_ms":    {median(calib), "ms"},
		"host.setup_raw_s": {median(setupsRaw), "s"},
	}
	rep := map[string]any{
		"workload": r.cfg.workload, "seed": r.cfg.seed, "trace": 0,
		"passes":           len(raw),
		"setup_s_samples":  setups,
		"pass_ms_samples":  cal,
		"pass_raw_samples": raw,
		"calib_ms_samples": calib,
		"attempted":        r.attempted,
		"failed":           r.failed,
		"errors":           r.errs,
		"calib_ref_ms":     calibRefMS,
		"metrics":          m,
		"more_metrics":     more,
	}
	if r.cfg.workload == "serve" {
		serveE2E(more, rep, outs, cal, calib)
	}
	return r.finish(m, rep, 0)
}

// traced is the per-layer run: set-up with spans, a traced warm-up
// pass, untraced passes for the overhead baseline, traced passes, then
// the workload's probes.
func (r *session) traced() (result, error) {
	tr := newTracer()
	b, err := workloads[r.cfg.workload](r.cfg, tr)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	// The warm-up is the first computed pass of the process, so it runs
	// traced (and so instrumented): the invariance guard below compares
	// its exact counts with those of every timed traced pass.
	warm, err := b.pass(tr)
	if err != nil {
		return result{}, fmt.Errorf("warm-up pass: %w", err)
	}
	r.note(warm)
	_, raw, plain, calibA, err := r.timed(b, r.seconds/2, nil)
	if err != nil {
		return result{}, err
	}
	outs, rawTraced, withTrace, calibB, err := r.timed(b, r.seconds/2, tr)
	if err != nil {
		return result{}, err
	}
	calib := median(append(append([]float64(nil), calibA...), calibB...))
	lm := layerMetrics{}
	samples := map[string][]float64{}
	for _, p := range outs {
		for name, ms := range p.samples {
			samples[name] = append(samples[name], ms...)
		}
	}
	for _, name := range sortedKeys(samples) {
		lm.set(name, scale(median(samples[name]), calib), "ms")
	}
	lo, err := b.layers(tr, lm, calib)
	if err != nil {
		return result{}, err
	}
	r.note(lo)

	// Pass invariance: exact counts must repeat on every pass, or some
	// process-wide memo is making later passes cheaper than the first.
	for _, p := range outs {
		if p.ops != warm.ops || p.iters != warm.iters {
			r.failed++
			r.errs = append(r.errs, fmt.Sprintf("pass invariance: ops %d, iterations %d on a traced pass; %d and %d on the first pass",
				p.ops, p.iters, warm.ops, warm.iters))
			break
		}
	}
	lm.set("arith.ops", float64(warm.ops), "count")
	lm.set("solvers.iters", float64(warm.iters), "count")
	lm.set("host.calib_ms", calib, "ms")
	lm.set("host.pass_raw_ms", median(raw), "ms")
	lm.set("trace.overhead_ms", median(withTrace)-median(plain), "ms")

	spans := tr.snapshot()
	kids := childrenOf(spans)
	gen := 0.0
	for _, s := range spans {
		if s.Layer == "matgen" {
			gen += s.ms()
		}
	}
	lm.set("matgen.generate_ms", scale(gen, calib), "ms")
	self := selfTimes(kids)
	for _, layer := range sortedKeys(self) {
		lm.set("self_ms."+layer, scale(self[layer], calib), "ms")
	}
	// Coverage is the share of the timed traced passes' wall time that
	// lies under a span one level below the pass: the experiments of a
	// runner pass, the requests of a serve round. The runner's own time
	// and the benchmark's output checks count as not covered.
	under, wall := 0.0, 0.0
	for i, p := range outs {
		under += covered(spans[p.root-1], kids[p.root])
		wall += rawTraced[i]
	}
	lm.set("trace.coverage", under/wall, "1")
	lm.set("fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "1")

	dir := filepath.Join(r.buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	spanPath := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.cfg.workload, r.cfg.seed))
	if err := writeSpans(spanPath, spans); err != nil {
		return result{}, err
	}
	m := map[string]metric{}
	for _, n := range layerNames {
		v, ok := lm[n]
		if !ok {
			return result{}, fmt.Errorf("traced run measured no %s", n)
		}
		m[n] = v
	}
	rep := map[string]any{
		"workload": r.cfg.workload, "seed": r.cfg.seed, "trace": 1,
		"spans":         spanPath,
		"span_count":    len(spans),
		"attempted":     r.attempted,
		"failed":        r.failed,
		"errors":        r.errs,
		"layer_metrics": map[string]metric(lm),
	}
	return r.finish(m, rep, 1)
}

// finish writes the full report, prints the readable table to standard
// error, and builds the result line.
func (r *session) finish(m map[string]metric, rep map[string]any, trace int) (result, error) {
	dir := filepath.Join(r.buildDir, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.cfg.workload, r.cfg.seed, trace))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return result{}, err
	}
	printTable(rep, path)
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// printTable prints every scalar of the report, sorted by name, with
// the metric tables expanded to name, value and unit.
func printTable(rep map[string]any, path string) {
	w := bufio.NewWriter(os.Stderr)
	defer w.Flush()
	fmt.Fprintf(w, "perfbench %v seed %v (report: %s)\n", rep["workload"], rep["seed"], path)
	for _, k := range sortedKeys(rep) {
		switch v := rep[k].(type) {
		case map[string]metric:
			for _, n := range sortedKeys(v) {
				fmt.Fprintf(w, "  %-46s %14.4f %s\n", n, v[n].Value, v[n].Unit)
			}
		case []float64, []string:
			// samples and error lists live in the report file
		default:
			fmt.Fprintf(w, "  %-46s %v\n", k, v)
		}
	}
	if errs, _ := rep["errors"].([]string); len(errs) > 0 {
		fmt.Fprintln(w, "  first errors:")
		for _, e := range errs {
			fmt.Fprintln(w, "   ", e)
		}
	}
}

// spawnSetup runs one set-up in a fresh process and returns its raw
// set-up time (s) and the calibration (ms) it measured right after.
func (r *session) spawnSetup(i int) (raw, calib float64, err error) {
	args := []string{"-setup-child", "-workload", r.cfg.workload,
		"-seed", strconv.FormatUint(r.cfg.seed, 10), "-build-dir", r.buildDir}
	if r.cfg.workload == "serve" {
		dir := filepath.Join(r.cfg.tmp, fmt.Sprintf("child%d-jobs", i))
		if err := copyJournal(seedJournal(r.cfg), dir); err != nil {
			return 0, 0, err
		}
		args = append(args, "-jobs-dir", dir)
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, err
	}
	var s struct{ RawS, CalibMS float64 }
	if err := json.Unmarshal(out, &s); err != nil {
		return 0, 0, fmt.Errorf("set-up child output %q: %w", out, err)
	}
	return s.RawS, s.CalibMS, nil
}

// childSetup is the body of a set-up child: set up, calibrate, report.
func childSetup(cfg config, start time.Time) int {
	b, err := workloads[cfg.workload](cfg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench set-up child:", err)
		return 1
	}
	raw := sinceMS(start) / 1000
	c := calibrate()
	if err := b.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench set-up child:", err)
		return 1
	}
	data, err := json.Marshal(struct{ RawS, CalibMS float64 }{raw, c})
	if err != nil {
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// maxRSSMB returns the process's peak resident set in MB (VmHWM),
// less the calibration loop's buffer.
func maxRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb/1024 - calibFarBytes/(1<<20)
			}
		}
	}
	return 0
}

// sortedKeys returns m's keys in order, so that a loop over a map runs
// the same way every time.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
