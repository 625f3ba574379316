package arith_test

import (
	"math"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

// binary32Soft is IEEE binary32 in software: too wide for the 16-bit
// table engine, so its kernels run the value engine's IEEE branch.
var binary32Soft = minifloat.MustNew(8, 23)

// kernelFormats is the differential universe: every registered format
// (all fast value-domain implementations plus the native IEEE ones),
// the slow integer-pipeline references, which exercise the generic
// scalar fallback of the kernel layer, and a software binary32 on the
// value engine (every registered minifloat takes the table engine).
func kernelFormats(t *testing.T) map[string]arith.Format {
	fs := map[string]arith.Format{}
	for _, name := range arith.Names() {
		fs[name] = arith.MustByName(name)
	}
	pairs := referencePairs()
	for name, p := range pairs {
		fs[name+"-slow"] = p.slow
	}
	// The registered posits above cover the other fast halves.
	fs["binary32soft"] = pairs["binary32soft"].fast
	fs["posit16e2-slow"] = arith.Posit(posit.Posit16e2)
	fs["float16-slow"] = arith.Mini(minifloat.Float16, "Float16")
	fs["bfloat16-slow"] = arith.Mini(minifloat.BFloat16, "BFloat16")
	if len(fs) < 20 {
		t.Fatalf("expected the full registry, got %d formats", len(fs))
	}
	return fs
}

// referencePairs are the value-engine formats (wider than 16 bits)
// with their integer-pipeline references. The kernels of each fast
// format must reproduce the reference's scalar loops value for value.
func referencePairs() map[string]struct{ fast, slow arith.Format } {
	p24 := posit.MustNew(24, 2)
	return map[string]struct{ fast, slow arith.Format }{
		"posit32e2":    {arith.Posit32e2, arith.Posit(posit.Posit32e2)},
		"posit32e3":    {arith.Posit32e3, arith.Posit(posit.Posit32e3)},
		"posit24e2":    {arith.FastPosit(p24), arith.Posit(p24)},
		"binary32soft": {arith.FastMini(binary32Soft, "binary32"), arith.Mini(binary32Soft, "binary32")},
	}
}

// kernelOperands builds a randomized operand slice in f that
// deliberately includes the exceptional patterns — zeros of both
// signs, NaR/NaN, ±Inf (via overflow in IEEE formats), max/min
// magnitudes — amid a log-uniform spread.
func kernelOperands(f arith.Format, n int, seed uint64) []arith.Num {
	x := seed
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	out := make([]arith.Num, n)
	for i := range out {
		r := next()
		switch r % 16 {
		case 0:
			out[i] = f.Zero()
		case 1:
			out[i] = f.FromFloat64(math.NaN()) // NaR / NaN
		case 2:
			out[i] = f.FromFloat64(math.Inf(1)) // +Inf or posit clamp
		case 3:
			out[i] = f.FromFloat64(-f.MaxValue())
		case 4:
			out[i] = f.FromFloat64(f.MaxValue() / 2)
		case 5:
			out[i] = f.One()
		case 6:
			out[i] = f.FromFloat64(math.Copysign(0, -1)) // IEEE −0
		default:
			e := int(r%200) - 100
			m := 1 + float64(r>>40)/float64(1<<24)
			v := math.Ldexp(m, e)
			if r&(1<<20) != 0 {
				v = -v
			}
			out[i] = f.FromFloat64(v)
		}
	}
	return out
}

// bandedOperands is mostly zeros, like the rows of a banded matrix
// stored dense: a nonzero band in the middle, a scattered nonzero
// every 17th entry, and −0 every 5th.
func bandedOperands(f arith.Format, n int, seed uint64) []arith.Num {
	dense := kernelOperands(f, n, seed)
	out := make([]arith.Num, n)
	for i := range out {
		switch {
		case i >= n/3 && i < n/3+8, i%17 == 3:
			out[i] = dense[i]
		case i%5 == 0:
			out[i] = f.FromFloat64(math.Copysign(0, -1))
		default:
			out[i] = f.Zero()
		}
	}
	return out
}

// kernelCase is one operand set for the kernel differentials.
type kernelCase struct {
	name  string
	x, y  []arith.Num
	alpha arith.Num
}

// kernelCases covers the dense random mix and zero-dense slices, the
// latter also against NaR/NaN, infinite and −0 alphas (a NaR alpha
// must not skip zero x).
func kernelCases(f arith.Format, n int) []kernelCase {
	const sx, sy = 0x9E3779B97F4A7C15, 0xD1B54A32D192ED03
	third := f.FromFloat64(1.0 / 3.0)
	return []kernelCase{
		{"mixed", kernelOperands(f, n, sx), kernelOperands(f, n, sy), third},
		{"banded", bandedOperands(f, n, sx), kernelOperands(f, n, sy), third},
		{"banded-nan-alpha", bandedOperands(f, n, sx), kernelOperands(f, n, sy), f.FromFloat64(math.NaN())},
		{"banded-inf-alpha", bandedOperands(f, n, sx), bandedOperands(f, n, sy), f.FromFloat64(math.Inf(-1))},
		{"banded-negzero-alpha", bandedOperands(f, n, sx), bandedOperands(f, n, sy), f.FromFloat64(math.Copysign(0, -1))},
	}
}

// eqNum compares two results of the same format: exceptional values
// (NaR, NaN, ±Inf with matching sign) are compared by class — NaN
// payloads may legitimately differ between operand orders — everything
// else must match bit for bit.
func eqNum(f arith.Format, a, b arith.Num) bool {
	va, vb := f.ToFloat64(a), f.ToFloat64(b)
	if math.IsNaN(va) || math.IsNaN(vb) {
		return math.IsNaN(va) && math.IsNaN(vb)
	}
	return math.Float64bits(va) == math.Float64bits(vb)
}

func cloneNums(x []arith.Num) []arith.Num { return append([]arith.Num(nil), x...) }

// kernelResults holds the output of each kernel on one case; the
// matvec runs on bandCSR.
type kernelResults struct {
	dot                                   arith.Num
	axpy, scale, mulAdd, trailing, matVec []arith.Num
}

// scalarLoops computes every kernel's defining sequence of scalar
// Format operations — the pre-kernel inner loops of linalg and the
// solvers. The trailing update is the Cholesky form Sub(w[i],
// Mul(alpha, x[i])) that TrailingUpdateKernel(Neg(alpha), ...) must
// reproduce.
func scalarLoops(f arith.Format, c kernelCase) kernelResults {
	x, y, alpha := c.x, c.y, c.alpha
	n := len(x)
	r := kernelResults{dot: f.Zero()}
	for i := range x {
		r.dot = f.Add(r.dot, f.Mul(x[i], y[i]))
	}
	r.axpy, r.scale, r.mulAdd, r.trailing = cloneNums(y), cloneNums(x), make([]arith.Num, n), cloneNums(y)
	for i := range x {
		r.axpy[i] = f.Add(r.axpy[i], f.Mul(alpha, x[i]))
		r.scale[i] = f.Mul(alpha, r.scale[i])
		r.mulAdd[i] = f.Add(f.Mul(alpha, x[i]), y[i])
		r.trailing[i] = f.Sub(r.trailing[i], f.Mul(alpha, x[i]))
	}
	rowPtr, col, val := bandCSR(f, n)
	r.matVec = make([]arith.Num, n)
	for i := 0; i < n; i++ {
		sum := f.Zero()
		for idx := rowPtr[i]; idx < rowPtr[i+1]; idx++ {
			sum = f.Add(sum, f.Mul(val[idx], x[col[idx]]))
		}
		r.matVec[i] = sum
	}
	return r
}

// bulkKernels runs every kernel of f on c.
func bulkKernels(f arith.Format, c kernelCase) kernelResults {
	bk := arith.BulkOf(f)
	x, y, alpha := c.x, c.y, c.alpha
	n := len(x)
	r := kernelResults{dot: bk.DotKernel(x, y)}
	r.axpy = cloneNums(y)
	bk.AxpyKernel(alpha, x, r.axpy)
	r.scale = cloneNums(x)
	bk.ScaleKernel(alpha, r.scale)
	r.mulAdd = make([]arith.Num, n)
	bk.MulAddKernel(alpha, x, y, r.mulAdd)
	r.trailing = cloneNums(y)
	bk.TrailingUpdateKernel(f.Neg(alpha), x, r.trailing)
	rowPtr, col, val := bandCSR(f, n)
	r.matVec = make([]arith.Num, n)
	bk.MatVecKernel(rowPtr, col, val, x, r.matVec)
	return r
}

// compareResults reports the first element of every kernel where got
// (in format gf) and want (in wf) differ as float64 values: NaN
// matches NaN by class, everything else bit for bit — signed zeros
// included, since fast posits keep the canonical +0 as the integer
// pipeline does.
func compareResults(t *testing.T, gf arith.Format, got kernelResults, wf arith.Format, want kernelResults) {
	t.Helper()
	eq := func(a, b arith.Num) bool {
		va, vb := gf.ToFloat64(a), wf.ToFloat64(b)
		if math.IsNaN(va) || math.IsNaN(vb) {
			return math.IsNaN(va) && math.IsNaN(vb)
		}
		return math.Float64bits(va) == math.Float64bits(vb)
	}
	if !eq(got.dot, want.dot) {
		t.Errorf("DotKernel = %g, scalar loop = %g", gf.ToFloat64(got.dot), wf.ToFloat64(want.dot))
	}
	for _, k := range []struct {
		name      string
		got, want []arith.Num
	}{
		{"AxpyKernel", got.axpy, want.axpy},
		{"ScaleKernel", got.scale, want.scale},
		{"MulAddKernel", got.mulAdd, want.mulAdd},
		{"TrailingUpdateKernel", got.trailing, want.trailing},
		{"MatVecKernel", got.matVec, want.matVec},
	} {
		for i := range k.want {
			if !eq(k.got[i], k.want[i]) {
				t.Errorf("%s[%d] = %g, scalar loop = %g", k.name, i, gf.ToFloat64(k.got[i]), wf.ToFloat64(k.want[i]))
				break
			}
		}
	}
}

// TestKernelsMatchScalarLoops asserts every kernel is bit-identical to
// the defining sequence of scalar Format operations on randomized and
// zero-dense slices laced with NaR/Inf/±0 patterns, for every
// registered format and the slow reference implementations.
func TestKernelsMatchScalarLoops(t *testing.T) {
	n := 257 // odd, not a chunk multiple
	if testing.Short() {
		n = 65
	}
	for name, f := range kernelFormats(t) {
		t.Run(name, func(t *testing.T) {
			for _, c := range kernelCases(f, n) {
				t.Run(c.name, func(t *testing.T) {
					want := scalarLoops(f, c)
					compareResults(t, f, bulkKernels(f, c), f, want)
					checkKernelForms(t, f, c, want)
				})
			}
		})
	}
}

// TestValueKernelsMatchReference runs the value engine's kernels —
// posit and IEEE branches — against the scalar loops of the integer
// pipeline they reproduce, value for value.
func TestValueKernelsMatchReference(t *testing.T) {
	n := 257
	if testing.Short() {
		n = 65
	}
	for name, p := range referencePairs() {
		t.Run(name, func(t *testing.T) {
			// The Num encodings differ by design: operands cross over
			// as float64 values.
			conv := func(x []arith.Num) []arith.Num {
				out := make([]arith.Num, len(x))
				for i, v := range x {
					out[i] = p.fast.FromFloat64(p.slow.ToFloat64(v))
				}
				return out
			}
			for _, c := range kernelCases(p.slow, n) {
				t.Run(c.name, func(t *testing.T) {
					fc := kernelCase{c.name, conv(c.x), conv(c.y), conv([]arith.Num{c.alpha})[0]}
					compareResults(t, p.fast, bulkKernels(p.fast, fc), p.slow, scalarLoops(p.slow, c))
				})
			}
		})
	}
}

// checkKernelForms asserts the call forms the solvers rely on beyond
// the defining loops: Add commutes inside MulAdd (the CG form
// Add(y[i], Mul(alpha, x[i]))), MulAddKernel may alias dst = x, and a
// sharded MatVecKernel window equals the full pass.
func checkKernelForms(t *testing.T, f arith.Format, c kernelCase, want kernelResults) {
	t.Helper()
	bk := arith.BulkOf(f)
	x, y, alpha := c.x, c.y, c.alpha
	n := len(x)
	for i := range x {
		cg := f.Add(y[i], f.Mul(alpha, x[i]))
		if !eqNum(f, want.mulAdd[i], cg) {
			t.Fatalf("Add not commutative at %d: %g vs %g", i, f.ToFloat64(want.mulAdd[i]), f.ToFloat64(cg))
		}
	}
	ga := cloneNums(x)
	bk.MulAddKernel(alpha, ga, y, ga)
	for i := range ga {
		if !eqNum(f, ga[i], want.mulAdd[i]) {
			t.Fatalf("aliased MulAddKernel[%d] = %g, scalar = %g", i, f.ToFloat64(ga[i]), f.ToFloat64(want.mulAdd[i]))
		}
	}
	rowPtr, col, val := bandCSR(f, n)
	lo, hi := n/3, 2*n/3
	shard := make([]arith.Num, hi-lo)
	bk.MatVecKernel(rowPtr[lo:hi+1], col, val, x, shard)
	for i := range shard {
		if !eqNum(f, shard[i], want.matVec[lo+i]) {
			t.Fatalf("windowed MatVecKernel[%d] = %g, scalar = %g", lo+i, f.ToFloat64(shard[i]), f.ToFloat64(want.matVec[lo+i]))
		}
	}
}

// bandCSR builds a small tridiagonal-ish CSR with format-rounded
// values and a few deliberately empty rows.
func bandCSR(f arith.Format, n int) (rowPtr, col []int, val []arith.Num) {
	rowPtr = make([]int, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i] = len(col)
		if i%11 == 7 {
			continue // empty row
		}
		for _, j := range []int{i - 1, i, i + 1} {
			if j < 0 || j >= n {
				continue
			}
			col = append(col, j)
			val = append(val, f.FromFloat64(float64((i*7+j*3)%13)-6))
		}
	}
	rowPtr[n] = len(col)
	return rowPtr, col, val
}

// TestMulAddMatchesComposition asserts Format.MulAdd is exactly
// Add(Mul(a, b), c) for every format, across boundary-heavy operands.
func TestMulAddMatchesComposition(t *testing.T) {
	for name, f := range kernelFormats(t) {
		t.Run(name, func(t *testing.T) {
			ops := kernelOperands(f, 48, 0xA5A5A5A5DEADBEEF)
			for _, a := range ops[:16] {
				for _, b := range ops[16:32] {
					for _, c := range ops[32:] {
						want := f.Add(f.Mul(a, b), c)
						got := f.MulAdd(a, b, c)
						if !eqNum(f, got, want) {
							t.Fatalf("MulAdd(%g,%g,%g) = %g, Add(Mul) = %g",
								f.ToFloat64(a), f.ToFloat64(b), f.ToFloat64(c),
								f.ToFloat64(got), f.ToFloat64(want))
						}
					}
				}
			}
		})
	}
}

// TestInstrumentedKernelCounts asserts the batched per-kernel counter
// updates equal the per-op tallies of the equivalent scalar loops, for
// both wrapper flavors.
func TestInstrumentedKernelCounts(t *testing.T) {
	n := 100
	base := arith.Posit16e2
	x := kernelOperands(base, n, 1)
	y := kernelOperands(base, n, 2)
	rowPtr, col, val := bandCSR(base, n)
	nnz := uint64(len(val))

	f, c := arith.Instrument(base)
	bk := arith.BulkOf(f)
	alpha := f.One()
	bk.DotKernel(x, y)
	bk.AxpyKernel(alpha, x, cloneNums(y))
	bk.ScaleKernel(alpha, cloneNums(x))
	bk.MulAddKernel(alpha, x, y, make([]arith.Num, n))
	bk.TrailingUpdateKernel(alpha, x, cloneNums(y))
	bk.MatVecKernel(rowPtr, col, val, x, make([]arith.Num, n))

	got := *c
	want := arith.OpCounts{
		Mul: uint64(5*n) + nnz,
		Add: uint64(4*n) + nnz,
	}
	if got != want {
		t.Errorf("instrumented kernel counts = %+v, want %+v", got, want)
	}

	var ac arith.AtomicOpCounts
	fa := arith.InstrumentAtomic(base, &ac)
	bka := arith.BulkOf(fa)
	bka.DotKernel(x, y)
	bka.MatVecKernel(rowPtr, col, val, x, make([]arith.Num, n))
	snap := ac.Snapshot()
	wantA := arith.OpCounts{Mul: uint64(n) + nnz, Add: uint64(n) + nnz}
	if snap != wantA {
		t.Errorf("atomic kernel counts = %+v, want %+v", snap, wantA)
	}
}
