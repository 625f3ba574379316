package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"positlab/internal/arith"
	"positlab/internal/experiments"
	"positlab/internal/linalg"
	"positlab/internal/matgen"
	"positlab/internal/report"
	"positlab/internal/runner"
	"positlab/internal/scaling"
	"positlab/internal/solvers"
)

// reproMatrices is the fixed Table I subset of both repro workloads,
// sized so one repro32 pass takes about a second on a 2-vCPU Xeon.
// nos5 (n=468) is left out: its two dense Cholesky experiments alone
// took two seconds a pass.
var reproMatrices = []string{"bcsstk01", "lund_b", "nos1", "bcsstk22"}

// reproIDs are the experiments one pass of each repro workload runs.
// repro32 is Posit(32,2) value-domain work (CG, BiCG, dense Cholesky);
// repro16 is the <=16-bit table engine plus float64 refinement. table3
// and fig10 are left out: table3 memoizes its rows process-wide, so
// every pass after the first would time a map lookup.
var reproIDs = map[string][]string{
	"repro32": {"fig6", "fig7", "fig8", "fig9", "ext-bicg"},
	"repro16": {"table2", "ext-gmres"},
}

type reproBench struct {
	ids      []string
	matrices []string
	opt      experiments.Options
	reg      *runner.Registry
	gold     *golden
	suite    []*matgen.Matrix
}

func setupRepro(cfg config, tr *tracer) (bench, error) {
	ids := reproIDs[cfg.workload]
	gold, err := loadGolden(cfg.root, ids)
	if err != nil {
		return nil, err
	}
	// The seed only orders the matrices: rows and work are the same.
	matrices := append([]string(nil), reproMatrices...)
	rand.New(rand.NewSource(int64(cfg.seed))).Shuffle(len(matrices), func(i, j int) {
		matrices[i], matrices[j] = matrices[j], matrices[i]
	})
	b := &reproBench{
		ids: ids, matrices: matrices, reg: runner.NewRegistry(), gold: gold,
		opt: experiments.Options{Matrices: matrices}.Canonical(),
	}
	for _, id := range ids {
		spec, ok := runner.Default.Lookup(id)
		if id == "ext-bicg" {
			spec, ok = extBiCGTableI, true
		}
		if !ok {
			return nil, fmt.Errorf("experiment %s is not registered", id)
		}
		if err := b.reg.Register(spec); err != nil {
			return nil, err
		}
	}
	root := tr.begin(0, "bench", "setup")
	defer tr.end(root)
	// Suite generation, including the CondViaCholesky calibration, into
	// the experiments' process-wide suite that every pass reads.
	for _, name := range matrices {
		s := tr.begin(root, "matgen", "generate/"+name)
		b.suite = append(b.suite, experiments.Suite([]string{name})[0])
		tr.end(s)
	}
	if cfg.workload == "repro16" {
		buildTables(tr, root, experiments.IRFormats...)
	}
	return b, nil
}

// extBiCGTableI is ext-bicg without its Peclet sweep: the sweep is a
// fixed n=400 problem that ignores the matrix subset and took 12 s a
// pass, which would drown the Table I work this workload measures.
var extBiCGTableI = runner.Spec{
	ID:    "ext-bicg",
	Title: "BiCG iterate growth vs CG on the Table I subset (§VI)",
	Run: func(ctx context.Context, env *runner.Env) (*runner.Result, error) {
		opt, _ := env.Options.(experiments.Options)
		opt.Ops, opt.Ctx = env.Ops, ctx
		rows := experiments.ExtBiCG(opt)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &runner.Result{Body: experiments.RenderExtBiCG(rows)}, nil
	},
}

// pass runs one serial runner pass of the workload's experiments and
// checks every row against the committed outputs. A traced pass is
// instrumented (exact op counts) and records the runner's job reports
// as spans. Every pass samples each experiment's time and the runner's
// own time (pass time minus job time).
func (b *reproBench) pass(tr *tracer) (passOut, error) {
	cfg := runner.Config{Jobs: 1, Options: b.opt, Instrument: tr != nil}
	res, rep, err := b.reg.Run(context.Background(), b.ids, cfg)
	if err != nil {
		return passOut{}, err
	}
	out := passOut{attempted: 1, root: tr.add(0, "runner", "pass", rep.Started, rep.Finished)}
	jobs := 0.0
	for _, j := range rep.Jobs {
		tr.add(out.root, "experiments", j.ID, j.Start, j.End)
		out.sample("experiments."+j.ID+"_ms", j.WallMS)
		jobs += j.WallMS
		if j.Ops != nil {
			out.ops += j.Ops.Total()
		}
		out.iters += int(j.Metrics["cg_iterations"] + j.Metrics["ir_iterations"])
		if j.Err != "" {
			out.errs = append(out.errs, j.ID+": "+j.Err)
		}
	}
	out.sample("runner.overhead_ms", rep.TotalWallMS-jobs)
	for _, id := range b.ids {
		if r := res[id]; r == nil {
			out.errs = append(out.errs, id+": no result")
		} else if err := b.gold.checkResult(id, r, b.matrices); err != nil {
			out.errs = append(out.errs, err.Error())
		}
	}
	if len(out.errs) > 0 {
		out.failed = 1
	}
	return out, nil
}

func (b *reproBench) close() error { return nil }

// layers replays every solve of a pass phase by phase and runs the
// kernel probes.
func (b *reproBench) layers(tr *tracer, lm layerMetrics, calib float64) (passOut, error) {
	out := b.replay(tr, lm, calib)
	probeKernels(b.suite, tr, lm, calib)
	return out, nil
}

// phases accumulates the replay's spans into per-metric totals.
type phases struct {
	tr     *tracer
	parent int
	ms     map[string]float64
}

func (p *phases) do(layer, metric, name string, fn func()) {
	s := p.tr.begin(p.parent, layer, name)
	fn()
	p.ms[metric] += p.tr.end(s)
}

// replay re-runs each solve of one pass outside the runner, calling
// scaling, the linalg casts, the solver and the backward error one at
// a time, and checks each result against the committed row it must
// reproduce.
func (b *reproBench) replay(tr *tracer, lm layerMetrics, calib float64) passOut {
	root := tr.begin(0, "bench", "replay")
	p := &phases{tr: tr, parent: root, ms: map[string]float64{}}
	out := passOut{attempted: 1}
	check := func(id string, m *matgen.Matrix, col, got string) {
		want, err := b.gold.field(id, m.Target.Name, col)
		if err != nil {
			out.errs = append(out.errs, "replay: "+err.Error())
		} else if got != want {
			out.errs = append(out.errs, fmt.Sprintf("replay %s %s %s: got %s, committed %s", id, m.Target.Name, col, got, want))
		}
	}
	checkText := func(id string, m *matgen.Matrix, field int, got string) {
		row := b.gold.text[id][m.Target.Name]
		if field >= len(row) || row[field] != got {
			out.errs = append(out.errs, fmt.Sprintf("replay %s %s field %d: got %s, committed %v", id, m.Target.Name, field, got, row))
		}
	}
	for _, id := range b.ids {
		for _, m := range b.suite {
			switch id {
			case "fig6", "fig7", "ext-bicg":
				a, rhs := rescaleSystem(p, m, id != "fig6", false)
				formats := experiments.CGFormats
				if id == "ext-bicg" {
					formats = []arith.Format{arith.Posit32e2}
				}
				for _, f := range formats {
					an, bn := castSparse(p, a, rhs, f)
					var cg solvers.CGResult
					p.do("solvers", "solvers.cg_ms."+shortName(f), id+"/cg/"+m.Target.Name, func() {
						cg = solvers.CG(an, bn, b.opt.CGTol, b.opt.CGCapFactor*a.N)
					})
					if id != "ext-bicg" {
						check(id, m, f.Name()+"_iters", strconv.Itoa(cg.Iterations))
						check(id, m, f.Name()+"_failed", strconv.FormatBool(cg.Failed))
						continue
					}
					var bicg solvers.BiCGResult
					p.do("solvers", "solvers.bicg_ms."+shortName(f), id+"/bicg/"+m.Target.Name, func() {
						bicg = solvers.BiCG(an, bn, b.opt.CGTol, b.opt.CGCapFactor*a.N)
					})
					checkText(id, m, 1, report.FormatCount(cg.Iterations, cg.Converged, false, cg.Iterations))
					checkText(id, m, 2, report.FormatCount(bicg.Iterations, bicg.Converged, false, bicg.Iterations))
				}
			case "fig8", "fig9":
				a, rhs := rescaleSystem(p, m, id == "fig9", true)
				var dense *linalg.Dense
				p.do("linalg", "linalg.cast_ms", "to_dense/"+m.Target.Name, func() { dense = a.ToDense() })
				for _, f := range experiments.CholFormats {
					check(id, m, f.Name()+"_backerr", fmt.Sprintf("%g", choleskyBackErr(p, a, dense, rhs, f, m.Target.Name)))
				}
			case "table2", "ext-gmres":
				iopt := solvers.IROptions{Tol: b.opt.IRTol, MaxIter: b.opt.IRMaxIter}
				for i, f := range experiments.IRFormats {
					var ir, gm solvers.IRResult
					p.do("solvers", "solvers.ir_ms."+shortName(f), id+"/ir/"+m.Target.Name, func() {
						ir = solvers.MixedIR(m.A, m.B, f, solvers.IRScaling{}, iopt)
					})
					refineBackErr(p, &out, m.A, m.B, ir, id+"/"+m.Target.Name)
					if id == "table2" {
						check(id, m, f.Name()+"_result", irCell(ir, b.opt.IRMaxIter))
						check(id, m, f.Name()+"_factor_err", fmt.Sprintf("%g", ir.FactorError))
						continue
					}
					p.do("solvers", "solvers.gmres_ir_ms."+shortName(f), id+"/gmres_ir/"+m.Target.Name, func() {
						gm = solvers.MixedIRGMRES(m.A, m.B, f, solvers.IRScaling{}, iopt, solvers.GMRESOptions{})
					})
					checkText(id, m, 1+2*i, irCell(ir, b.opt.IRMaxIter))
					checkText(id, m, 2+2*i, irCell(gm, b.opt.IRMaxIter))
				}
			}
		}
	}
	tr.end(root)
	setPhaseMetrics(lm, p.ms, calib)
	if len(out.errs) > 0 {
		out.failed = 1
	}
	return out
}

// rescaleSystem returns the system a pass solves: A and b themselves, or a
// rescaled copy (Fig. 7's ‖A‖∞ target for CG, Algorithm 3 for
// Cholesky).
func rescaleSystem(p *phases, m *matgen.Matrix, on, cholesky bool) (*linalg.Sparse, []float64) {
	if !on {
		return m.A, m.B
	}
	a, rhs := m.A.Clone(), append([]float64(nil), m.B...)
	p.do("scaling", "scaling.rescale_ms", "rescale/"+m.Target.Name, func() {
		if cholesky {
			scaling.RescaleSystemCholesky(a, rhs)
		} else {
			scaling.RescaleSystemCG(a, rhs)
		}
	})
	return a, rhs
}

// castSparse rounds A and b into f, as the CG experiments do.
func castSparse(p *phases, a *linalg.Sparse, rhs []float64, f arith.Format) (*linalg.SparseNum, []arith.Num) {
	var an *linalg.SparseNum
	var bn []arith.Num
	p.do("linalg", "linalg.cast_ms", "cast/"+shortName(f), func() {
		an = a.ToFormat(f, false)
		bn = linalg.VecFromFloat64(f, rhs)
	})
	return an, bn
}

// choleskyBackErr solves A x = b by Cholesky in f and returns the
// backward error of x (NaN on breakdown), as Figs. 8 and 9 do.
func choleskyBackErr(p *phases, a *linalg.Sparse, dense *linalg.Dense, rhs []float64, f arith.Format, name string) float64 {
	var an *linalg.DenseNum
	var bn []arith.Num
	p.do("linalg", "linalg.cast_ms", "cast_dense/"+shortName(f), func() {
		an = dense.ToFormat(f, false)
		bn = linalg.VecFromFloat64(f, rhs)
	})
	var x []arith.Num
	var err error
	p.do("solvers", "solvers.cholesky_ms."+shortName(f), "cholesky/"+name, func() { x, err = solvers.CholeskySolve(an, bn) })
	if err != nil {
		return math.NaN()
	}
	var xf []float64
	p.do("linalg", "linalg.cast_ms", "cast_back/"+shortName(f), func() { xf = linalg.VecToFloat64(f, x) })
	var be float64
	p.do("solvers", "solvers.backward_error_ms", "backward_error/"+name, func() { be = solvers.BackwardError(a, rhs, xf) })
	return be
}

// refineBackErr measures ‖b − A·x‖/‖b‖ of a refined solution, the
// Figs. 8/9 metric, and checks it against the normwise backward error
// the refinement reported: both share the residual, and the reported
// one divides by ‖A‖_F‖x‖ + ‖b‖ ≥ ‖b‖, so it can never be the larger.
func refineBackErr(p *phases, out *passOut, a *linalg.Sparse, rhs []float64, r solvers.IRResult, name string) {
	if r.FactorFailed || r.X == nil {
		return
	}
	var be float64
	p.do("solvers", "solvers.backward_error_ms", "backward_error/"+name, func() { be = solvers.BackwardError(a, rhs, r.X) })
	if be < r.BackwardError*(1-1e-9) {
		out.errs = append(out.errs, fmt.Sprintf("replay %s: residual error %g below the reported backward error %g", name, be, r.BackwardError))
	}
}

// irCell renders a refinement result as Tables II and III do.
func irCell(r solvers.IRResult, cap int) string {
	if r.FactorFailed || math.IsNaN(r.BackwardError) {
		return "-"
	}
	if !r.Converged {
		return fmt.Sprintf("%d+", cap)
	}
	return strconv.Itoa(r.Iterations)
}

// setPhaseMetrics sets every replay total (calibrated) plus the
// solver total that all workloads report.
func setPhaseMetrics(lm layerMetrics, ms map[string]float64, calib float64) {
	solve := 0.0
	for _, name := range sortedKeys(ms) {
		lm.set(name, scale(ms[name], calib), "ms")
		if strings.HasPrefix(name, "solvers.") && name != "solvers.backward_error_ms" {
			solve += ms[name]
		}
	}
	lm.set("solvers.solve_ms", scale(solve, calib), "ms")
}
