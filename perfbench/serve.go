package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"positlab/internal/arith"
	"positlab/internal/experiments"
	"positlab/internal/jobs"
	"positlab/internal/linalg"
	"positlab/internal/matgen"
	"positlab/internal/runner"
	"positlab/internal/scaling"
	"positlab/internal/service"
	"positlab/internal/solvers"
)

// The serve workload: an in-process positd server on a real loopback
// listener with a journaled job store, driven by a closed loop of
// serveClients connections. One pass is one round of the seeded mix.
// Every round sends the same solves and job specs (so the exact op and
// iteration counts repeat); the seed orders the round, deals it to the
// connections and draws the fresh convert payloads.

const (
	serveClients = 2   // closed-loop connections, one per vCPU
	seedJobs     = 200 // finished jobs in the journal the server replays
	convertLen   = 256 // values per convert request
	freshConvert = 8   // convert requests per round with new payloads
	repeatConv   = 8   // convert requests per round with a repeated payload
	expGets      = 8   // warm experiment requests per round

	// Higham equilibration's tolerance and sweep cap, as Table III and
	// positd's /v1/solve both call it; neither exports them.
	highamTol    = 1e-8
	highamSweeps = 100
)

// serveExperiments are the experiments warmed in set-up and then read
// from the response cache.
var serveExperiments = []string{"table1", "fig6", "fig8", "table2"}

// solveSpec is one /v1/solve body (and job spec). Every one carries the
// experiments' tolerance and iteration cap (see withSettings), so its
// result is a committed row.
type solveSpec struct {
	Matrix  string  `json:"matrix"`
	Solver  string  `json:"solver"`
	Format  string  `json:"format"`
	Tol     float64 `json:"tol,omitempty"`
	MaxIter int     `json:"max_iter,omitempty"`
	Rescale bool    `json:"rescale,omitempty"`
	Higham  bool    `json:"higham,omitempty"`
}

// solveKinds are the solves each round sends for every matrix, and
// jobKind the one submitted as an async job: CG, Cholesky and
// refinement across 32- and 16-bit formats, with and without scaling.
// Each kind is one path through the solve handler, so every solver,
// scaling and arith engine (value path, 16-bit tables, IEEE) that
// positd dispatches to is exercised once per matrix.
var (
	solveKinds = []solveSpec{
		{Solver: "cg", Format: "posit32es2"},
		{Solver: "cg", Format: "float32", Rescale: true},
		{Solver: "cholesky", Format: "posit32es2", Rescale: true},
		{Solver: "ir", Format: "posit16es1"},
		{Solver: "ir", Format: "float16", Higham: true},
	}
	jobKind = solveSpec{Solver: "cg", Format: "posit32es3"}
)

// solveResult is the part of a solve response the benchmark checks.
type solveResult struct {
	Format        string         `json:"format"`
	Iterations    int            `json:"iterations"`
	Converged     bool           `json:"converged"`
	Failed        bool           `json:"failed"`
	BackwardError *float64       `json:"backward_error"`
	WallMS        float64        `json:"wall_ms"`
	Ops           arith.OpCounts `json:"ops"`
}

type jobView struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Retries     int             `json:"retries"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   time.Time       `json:"started_at"`
	FinishedAt  time.Time       `json:"finished_at"`
	Result      json.RawMessage `json:"result"`
}

type serveBench struct {
	gold    *golden
	opt     experiments.Options // the experiments' settings, filled
	suite   []*matgen.Matrix
	store   *jobs.Store
	srv     *service.Server
	stop    context.CancelFunc
	served  chan error
	base    string
	clients []*http.Client
	rng     *rand.Rand

	solves   []solveSpec
	jobs     []solveSpec // submitted as async jobs every round
	repeated [][]byte    // convert bodies re-sent every round
	expBody  map[string][]byte
	replayMS float64

	last []solveResult // traced: the latest response of each solve
	// Run totals over every round.
	hits, misses, rejected, jobRetries, jobFailed int
}

// seedJournal is the journal every serve set-up replays.
func seedJournal(cfg config) string { return filepath.Join(cfg.tmp, "seed-journal") }

// doneRunner finishes every job at once; it fills the seed journal.
type doneRunner struct{}

func (doneRunner) Run(context.Context, jobs.Job, jobs.Sink) ([]byte, error) {
	return []byte(`{"seeded":true}`), nil
}

// makeSeedJournal writes a journal of seedJobs finished jobs for the
// server to replay at start.
func makeSeedJournal(dir string) error {
	store, err := jobs.Open(dir, jobs.Config{NoSync: true})
	if err != nil {
		return err
	}
	pool := jobs.NewPool(store, doneRunner{}, jobs.PoolConfig{Workers: 1})
	pool.Start()
	var last jobs.Job
	for i := 0; i < seedJobs; i++ {
		spec, _ := json.Marshal(solveSpec{Matrix: "bcsstk01", Solver: "cg", Format: "float64"})
		if last, err = pool.Submit("solve", spec, jobs.SubmitOptions{}); err != nil {
			return err
		}
	}
	if _, err := store.Wait(context.Background(), last.ID); err != nil {
		return err
	}
	if !pool.Drain(30 * time.Second) {
		return fmt.Errorf("seed journal: pool did not drain")
	}
	return store.Close()
}

// copyJournal copies a journal directory (flat files only).
func copyJournal(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func setupServe(cfg config, tr *tracer) (bench, error) {
	ids := []string{"table1", "fig6", "fig7", "fig8", "fig9", "table2", "table3"}
	gold, err := loadGolden(cfg.root, ids)
	if err != nil {
		return nil, err
	}
	b := &serveBench{
		gold: gold, rng: rand.New(rand.NewSource(int64(cfg.seed))), expBody: map[string][]byte{},
		opt: experiments.Options{Matrices: reproMatrices}.Canonical(),
	}
	for i := 0; i < repeatConv; i++ {
		b.repeated = append(b.repeated, b.convertBody(i))
	}

	root := tr.begin(0, "bench", "setup")
	defer tr.end(root)
	for _, name := range reproMatrices {
		s := tr.begin(root, "matgen", "generate/"+name)
		b.suite = append(b.suite, experiments.Suite([]string{name})[0])
		tr.end(s)
	}
	for _, m := range b.suite {
		for _, k := range solveKinds {
			b.solves = append(b.solves, b.withSettings(k, m))
		}
		b.jobs = append(b.jobs, b.withSettings(jobKind, m))
	}
	buildTables(tr, root, experiments.IRFormats...)

	s := tr.begin(root, "jobs", "open_replay")
	b.store, err = jobs.Open(cfg.jobsDir, jobs.Config{})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	b.replayMS = b.store.ReplayStats().MS

	s = tr.begin(root, "service", "start")
	b.srv = service.New(service.Config{
		RunnerConfig: runner.Config{Jobs: 1, Options: b.opt},
		Jobs:         b.store,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tr.end(s)
		b.store.Close()
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	b.stop, b.served, b.base = stop, make(chan error, 1), "http://"+ln.Addr().String()
	go func() { b.served <- b.srv.Run(ctx, ln, 30*time.Second) }()
	for i := 0; i < serveClients; i++ {
		b.clients = append(b.clients, &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	err = b.healthy()
	tr.end(s)
	if err != nil {
		b.close()
		return nil, err
	}

	// Warm the experiment cache and check the rows it will serve.
	s = tr.begin(root, "service", "warm_experiments")
	defer tr.end(s)
	for _, id := range serveExperiments {
		status, _, body, err := b.do(b.clients[0], "GET", "/v1/experiments/"+id+"?artifacts=1", nil)
		if err != nil || status != http.StatusOK {
			b.close()
			return nil, fmt.Errorf("warming %s: status %d, %v", id, status, err)
		}
		var res runner.Result
		if err := json.Unmarshal(body, &res); err != nil {
			b.close()
			return nil, fmt.Errorf("warming %s: %w", id, err)
		}
		if gold.csv[id] != nil {
			if err := gold.checkResult(id, &res, reproMatrices); err != nil {
				b.close()
				return nil, err
			}
		}
		b.expBody[id] = body
	}
	return b, nil
}

// withSettings returns kind as a solve of m with the experiments'
// tolerance and iteration cap, the settings the committed rows used.
func (b *serveBench) withSettings(kind solveSpec, m *matgen.Matrix) solveSpec {
	kind.Matrix = m.Target.Name
	switch kind.Solver {
	case "cg":
		kind.Tol, kind.MaxIter = b.opt.CGTol, b.opt.CGCapFactor*m.A.N
	case "ir":
		kind.Tol, kind.MaxIter = b.opt.IRTol, b.opt.IRMaxIter
	}
	return kind
}

// healthy polls /healthz until the server answers 200.
func (b *serveBench) healthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, _, err := b.do(b.clients[0], "GET", "/healthz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy: status %d, %v", status, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (b *serveBench) do(c *http.Client, method, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// convertFormats are the targets of the convert requests.
var convertFormats = []string{"posit32es2", "posit16es1", "posit16es2", "float16", "float32"}

// convertBody draws one convert request: convertLen values with
// log-uniform magnitudes in [1e-3, 1e4] and random signs.
func (b *serveBench) convertBody(i int) []byte {
	vals := make([]float64, convertLen)
	for j := range vals {
		vals[j] = math.Pow(10, -3+7*b.rng.Float64())
		if b.rng.Intn(2) == 0 {
			vals[j] = -vals[j]
		}
	}
	body, _ := json.Marshal(map[string]any{"from": "float64", "to": convertFormats[i%len(convertFormats)], "values": vals})
	return body
}

// request is one client step of a round.
type request struct {
	route string
	solve int        // index into b.solves, or -1
	job   *solveSpec // a job: submit, then wait until done
	exp   string     // experiment id
	body  []byte
}

// round builds one round's requests in seeded order.
func (b *serveBench) round() []request {
	var reqs []request
	for i := range b.solves {
		reqs = append(reqs, request{route: "solve", solve: i})
	}
	for i := range b.jobs {
		body, _ := json.Marshal(map[string]any{"solve": b.jobs[i]})
		reqs = append(reqs, request{route: "jobs_submit", solve: -1, job: &b.jobs[i], body: body})
	}
	for i := 0; i < freshConvert; i++ {
		reqs = append(reqs, request{route: "convert", solve: -1, body: b.convertBody(i)})
	}
	for i := 0; i < repeatConv; i++ {
		reqs = append(reqs, request{route: "convert", solve: -1, body: b.repeated[i]})
	}
	for i := 0; i < expGets; i++ {
		reqs = append(reqs, request{route: "experiments", solve: -1, exp: serveExperiments[i%len(serveExperiments)]})
	}
	b.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// clientLog is what one connection observed in a round.
type clientLog struct {
	passOut
	solves                                     map[int]solveResult
	hits, misses, rejected, retries, jobFailed int
}

// pass sends one round. Its ops are those the solve and job responses
// report: convert requests are left out, because a repeated payload is
// computed in the first round and an LRU hit after it.
func (b *serveBench) pass(tr *tracer) (passOut, error) {
	reqs := b.round()
	root := tr.begin(0, "bench", "round")
	logs := make([]clientLog, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			l.solves = map[int]solveResult{}
			for i := c; i < len(reqs); i += serveClients {
				b.send(b.clients[c], reqs[i], l, tr, root)
			}
		}(c)
	}
	wg.Wait()
	tr.end(root)
	out := passOut{root: root}
	for _, l := range logs {
		out.merge(l.passOut)
		b.hits += l.hits
		b.misses += l.misses
		b.rejected += l.rejected
		b.jobRetries += l.retries
		b.jobFailed += l.jobFailed
		if tr != nil {
			if b.last == nil {
				b.last = make([]solveResult, len(b.solves))
			}
			for i, r := range l.solves {
				b.last[i] = r
			}
		}
	}
	return out, nil
}

// send performs one request (for a job: the submit and the waits) and
// checks the response.
func (b *serveBench) send(c *http.Client, rq request, l *clientLog, tr *tracer, root int) {
	call := func(route, method, path string, body []byte) (int, []byte, time.Time, time.Time, error) {
		t0 := time.Now()
		status, hdr, data, err := b.do(c, method, path, body)
		t1 := time.Now()
		ms := float64(t1.Sub(t0)) / float64(time.Millisecond)
		kind := route
		switch hdr.Get("X-Cache") {
		case "hit":
			kind, l.hits = route+"_hit", l.hits+1
		case "miss":
			kind, l.misses = route+"_miss", l.misses+1
		}
		l.attempted++
		l.lat = append(l.lat, ms)
		l.kind = append(l.kind, kind)
		l.sample("service."+route+"_ms_p50", ms)
		if status == http.StatusTooManyRequests {
			l.rejected++
		}
		return status, data, t0, t1, err
	}
	fail := func(format string, args ...any) {
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, fmt.Sprintf(format, args...))
		}
	}
	switch {
	case rq.solve >= 0:
		spec := b.solves[rq.solve]
		body, _ := json.Marshal(spec)
		status, data, t0, t1, err := call("solve", "POST", "/v1/solve", body)
		if err != nil || status != http.StatusOK {
			fail("solve %+v: status %d, %v", spec, status, err)
			return
		}
		var res solveResult
		if err := json.Unmarshal(data, &res); err != nil {
			fail("solve %+v: %v", spec, err)
			return
		}
		if err := b.checkSolve(spec, res); err != nil {
			fail("%v", err)
			return
		}
		l.iters += res.Iterations
		l.ops += res.Ops.Total()
		l.solves[rq.solve] = res
		lat := float64(t1.Sub(t0)) / float64(time.Millisecond)
		l.sample("service.overhead_ms_p50", lat-res.WallMS)
		if tr != nil {
			id := tr.add(root, "service", "solve", t0, t1)
			pad := time.Duration((lat - res.WallMS) / 2 * float64(time.Millisecond))
			tr.add(id, "solvers", spec.Solver+"/"+spec.Format, t0.Add(pad), t1.Add(-pad))
		}
	case rq.job != nil:
		status, data, t0, t1, err := call("jobs_submit", "POST", "/v1/jobs", rq.body)
		if err != nil || status != http.StatusAccepted {
			fail("job submit: status %d, %v", status, err)
			return
		}
		tr.add(root, "service", "jobs_submit", t0, t1)
		l.sample("jobs.submit_ms_p50", float64(t1.Sub(t0))/float64(time.Millisecond))
		var v jobView
		if err := json.Unmarshal(data, &v); err != nil {
			fail("job submit: %v", err)
			return
		}
		for v.State != "succeeded" && v.State != "failed" && v.State != "canceled" {
			status, data, t0, t1, err = call("jobs_get", "GET", "/v1/jobs/"+v.ID+"?wait=30s", nil)
			if err != nil || status != http.StatusOK {
				fail("job get %s: status %d, %v", v.ID, status, err)
				return
			}
			if err := json.Unmarshal(data, &v); err != nil {
				fail("job get %s: %v", v.ID, err)
				return
			}
			tr.add(root, "service", "jobs_get", t0, t1)
		}
		l.retries += v.Retries
		if v.State != "succeeded" {
			l.jobFailed++
			fail("job %s %s", v.ID, v.State)
			return
		}
		var res solveResult
		if err := json.Unmarshal(v.Result, &res); err != nil {
			fail("job %s result: %v", v.ID, err)
			return
		}
		if err := b.checkSolve(*rq.job, res); err != nil {
			fail("job %s: %v", v.ID, err)
			return
		}
		l.iters += res.Iterations
		l.ops += res.Ops.Total()
		tr.add(root, "jobs", "queue_wait", v.SubmittedAt, v.StartedAt)
		tr.add(root, "solvers", "job_run", v.StartedAt, v.FinishedAt)
		l.sample("jobs.queue_wait_ms_p50", float64(v.StartedAt.Sub(v.SubmittedAt))/float64(time.Millisecond))
		l.sample("jobs.run_ms_p50", float64(v.FinishedAt.Sub(v.StartedAt))/float64(time.Millisecond))
	case rq.route == "convert":
		status, data, t0, t1, err := call("convert", "POST", "/v1/convert", rq.body)
		if err != nil || status != http.StatusOK {
			fail("convert: status %d, %v", status, err)
			return
		}
		tr.add(root, "service", "convert", t0, t1)
		if err := checkConvert(rq.body, data); err != nil {
			fail("%v", err)
		}
	default:
		status, data, t0, t1, err := call("experiments", "GET", "/v1/experiments/"+rq.exp+"?artifacts=1", nil)
		if err != nil || status != http.StatusOK {
			fail("experiment %s: status %d, %v", rq.exp, status, err)
			return
		}
		tr.add(root, "service", "experiments", t0, t1)
		if !bytes.Equal(data, b.expBody[rq.exp]) {
			fail("experiment %s: body differs from the checked one", rq.exp)
		}
	}
}

// checkSolve compares a solve result with the committed row of the
// experiment that ran the same solve.
func (b *serveBench) checkSolve(s solveSpec, r solveResult) error {
	var id, col, got string
	switch s.Solver {
	case "cg":
		id, col, got = pick(s.Rescale, "fig7", "fig6"), r.Format+"_iters", strconv.Itoa(r.Iterations)
	case "cholesky":
		id, col, got = pick(s.Rescale, "fig9", "fig8"), r.Format+"_backerr", "NaN"
		if !r.Failed && r.BackwardError != nil {
			got = fmt.Sprintf("%g", *r.BackwardError)
		}
	case "ir":
		ir := solvers.IRResult{Iterations: r.Iterations, Converged: r.Converged, FactorFailed: r.Failed, BackwardError: math.NaN()}
		if r.BackwardError != nil {
			ir.BackwardError = *r.BackwardError
		}
		id, col, got = pick(s.Higham, "table3", "table2"), r.Format+"_result", irCell(ir, s.MaxIter)
	}
	want, err := b.gold.field(id, s.Matrix, col)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("solve %+v: %s %s is %s, committed %s", s, id, col, got, want)
	}
	return nil
}

func pick(c bool, a, b string) string {
	if c {
		return a
	}
	return b
}

// checkConvert recomputes every converted value in-process.
func checkConvert(reqBody, respBody []byte) error {
	var req struct {
		From, To string
		Values   []float64
	}
	var resp struct {
		Count   int `json:"count"`
		Results []struct {
			Out *float64 `json:"out"`
		} `json:"results"`
	}
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return err
	}
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	from, to := arith.MustByName(req.From), arith.MustByName(req.To)
	if resp.Count != len(req.Values) || len(resp.Results) != len(req.Values) {
		return fmt.Errorf("convert: %d results for %d values", len(resp.Results), len(req.Values))
	}
	for i, v := range req.Values {
		want := to.ToFloat64(to.FromFloat64(from.ToFloat64(from.FromFloat64(v))))
		if got := resp.Results[i].Out; got == nil || *got != want {
			return fmt.Errorf("convert %s->%s of %g: got %v, want %g", req.From, req.To, v, got, want)
		}
	}
	return nil
}

func (b *serveBench) close() error {
	if b.stop == nil {
		return b.store.Close()
	}
	b.stop()
	err := <-b.served
	b.stop = nil
	if cerr := b.store.Close(); err == nil {
		err = cerr
	}
	for _, c := range b.clients {
		c.CloseIdleConnections()
	}
	return err
}

// layers replays the round's solves phase by phase, checks them
// against the server's answers, and runs the kernel probes.
func (b *serveBench) layers(tr *tracer, lm layerMetrics, calib float64) (passOut, error) {
	root := tr.begin(0, "bench", "replay")
	p := &phases{tr: tr, parent: root, ms: map[string]float64{}}
	out := passOut{attempted: 1}
	mats := map[string]*matgen.Matrix{}
	for _, m := range b.suite {
		mats[m.Target.Name] = m
	}
	for i, s := range b.solves {
		m, f := mats[s.Matrix], arith.MustByName(s.Format)
		got := solveResult{Format: f.Name()}
		switch s.Solver {
		case "cg", "cholesky":
			a, rhs := rescaleSystem(p, m, s.Rescale, s.Solver == "cholesky")
			if s.Solver == "cg" {
				an, bn := castSparse(p, a, rhs, f)
				var r solvers.CGResult
				p.do("solvers", "solvers.cg_ms."+shortName(f), "cg/"+m.Target.Name, func() { r = solvers.CG(an, bn, s.Tol, s.MaxIter) })
				got.Iterations = r.Iterations
				break
			}
			var dense *linalg.Dense
			p.do("linalg", "linalg.cast_ms", "to_dense/"+m.Target.Name, func() { dense = a.ToDense() })
			be := choleskyBackErr(p, a, dense, rhs, f, m.Target.Name)
			got.Failed = math.IsNaN(be)
			got.BackwardError = &be
		case "ir":
			sc := solvers.IRScaling{}
			if s.Higham {
				p.do("scaling", "scaling.higham_ms", "higham/"+m.Target.Name, func() {
					sc = solvers.IRScaling{R: scaling.HighamEquilibrate(m.A, highamTol, highamSweeps), Mu: scaling.MuFor(f)}
				})
			}
			var r solvers.IRResult
			p.do("solvers", "solvers.ir_ms."+shortName(f), "ir/"+m.Target.Name, func() {
				r = solvers.MixedIR(m.A, m.B, f, sc, solvers.IROptions{Tol: s.Tol, MaxIter: s.MaxIter})
			})
			refineBackErr(p, &out, m.A, m.B, r, "ir/"+m.Target.Name)
			got.Iterations, got.Converged, got.Failed = r.Iterations, r.Converged, r.FactorFailed
			got.BackwardError = &r.BackwardError
		}
		if err := b.checkSolve(s, got); err != nil {
			out.errs = append(out.errs, "replay: "+err.Error())
		}
		if b.last != nil && b.last[i].Iterations != got.Iterations {
			out.errs = append(out.errs, fmt.Sprintf("replay %+v: %d iterations, server answered %d", s, got.Iterations, b.last[i].Iterations))
		}
	}
	tr.end(root)
	setPhaseMetrics(lm, p.ms, calib)
	if len(out.errs) > 0 {
		out.failed = 1
	}

	lm.set("service.cache_hit_ratio", float64(b.hits)/float64(max(b.hits+b.misses, 1)), "1")
	lm.set("service.rejected", float64(b.rejected), "count")
	lm.set("jobs.replay_ms", scale(b.replayMS, calib), "ms")
	lm.set("jobs.failed", float64(b.jobFailed), "count")
	lm.set("jobs.retries", float64(b.jobRetries), "count")
	probeKernels(b.suite, tr, lm, calib)
	return out, nil
}

// serveE2E adds the request-level end-to-end figures of the untraced
// run to more, and the realised request mix to rep: the count of each
// route (split by cache outcome where the route is cached) and its
// share of the summed request time. Each latency is calibrated with the
// calibration around its round.
func serveE2E(more map[string]metric, rep map[string]any, outs []passOut, cal, calib []float64) {
	var lat []float64
	mix := map[string]int{}
	share := map[string]float64{}
	totalMS, reqMS := 0.0, 0.0
	for i, p := range outs {
		c := (calib[i] + calib[i+1]) / 2
		for j, x := range p.lat {
			lat = append(lat, scale(x, c))
			mix[p.kind[j]]++
			share[p.kind[j]] += x
			reqMS += x
		}
		totalMS += cal[i]
	}
	for k := range share {
		share[k] /= reqMS
	}
	p90 := quantile(lat, 0.9)
	beyond := 0
	for _, x := range lat {
		if x > p90 {
			beyond++
		}
	}
	more["req_per_s"] = metric{float64(len(lat)) / (totalMS / 1000), "1/s"}
	more["latency_ms_p50"] = metric{median(lat), "ms"}
	more["latency_ms_p90"] = metric{p90, "ms"}
	more["latency_samples"] = metric{float64(len(lat)), "count"}
	more["latency_samples_beyond_p90"] = metric{float64(beyond), "count"}
	rep["route_mix"] = mix
	rep["route_time_share"] = share
}
