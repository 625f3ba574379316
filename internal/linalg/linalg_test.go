package linalg_test

import (
	"math"
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

func laplacian1D(n int) *linalg.Sparse {
	var entries []linalg.Entry
	for i := 0; i < n; i++ {
		entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 2})
		if i+1 < n {
			entries = append(entries, linalg.Entry{Row: i, Col: i + 1, Val: -1})
		}
	}
	s, err := linalg.NewSparseFromEntries(n, entries, true)
	if err != nil {
		panic(err)
	}
	return s
}

func TestSparseConstruction(t *testing.T) {
	s := laplacian1D(5)
	if s.NNZ() != 5+2*4 {
		t.Fatalf("NNZ = %d, want 13", s.NNZ())
	}
	if s.At(0, 0) != 2 || s.At(0, 1) != -1 || s.At(1, 0) != -1 || s.At(0, 2) != 0 {
		t.Fatal("At() returned wrong entries")
	}
	if !s.IsSymmetric(1e-15) {
		t.Fatal("laplacian must be symmetric")
	}
	if got := s.NormInf(); got != 4 {
		t.Fatalf("NormInf = %g, want 4", got)
	}
	if got := s.MaxAbs(); got != 2 {
		t.Fatalf("MaxAbs = %g, want 2", got)
	}
	d := s.Diag()
	for _, v := range d {
		if v != 2 {
			t.Fatal("diag entries must be 2")
		}
	}
	// Duplicate entries accumulate.
	dup, err := linalg.NewSparseFromEntries(2, []linalg.Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 0, Val: 2}, {Row: 0, Col: 1, Val: 3},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if dup.At(0, 0) != 3 || dup.At(0, 1) != 3 || dup.At(1, 0) != 3 {
		t.Fatal("duplicate accumulation or symmetrization failed")
	}
	// Out-of-range entries rejected.
	if _, err := linalg.NewSparseFromEntries(2, []linalg.Entry{{Row: 5, Col: 0, Val: 1}}, false); err == nil {
		t.Fatal("out-of-range entry must error")
	}
}

func TestSparseMatVec(t *testing.T) {
	s := laplacian1D(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	s.MatVecF64(x, y)
	want := []float64{0, 0, 0, 5} // tridiag(-1,2,-1)*[1,2,3,4]
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MatVecF64 = %v, want %v", y, want)
		}
	}
	// Format matvec agrees with float64 for exactly representable data.
	for _, f := range []arith.Format{arith.Float32, arith.Posit32e2, arith.Float16, arith.Posit16e2} {
		sn := s.ToFormat(f, false)
		xf := linalg.VecFromFloat64(f, x)
		yf := linalg.NewVec(f, 4)
		sn.MatVec(xf, yf)
		got := linalg.VecToFloat64(f, yf)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s MatVec = %v, want %v", f.Name(), got, want)
			}
		}
	}
}

func TestMatVecT(t *testing.T) {
	// Nonsymmetric 3x3: A = [[1,2,0],[0,3,4],[5,0,6]].
	s, err := linalg.NewSparseFromEntries(3, []linalg.Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 2},
		{Row: 1, Col: 1, Val: 3}, {Row: 1, Col: 2, Val: 4},
		{Row: 2, Col: 0, Val: 5}, {Row: 2, Col: 2, Val: 6},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []arith.Format{arith.Float64, arith.Posit32e2} {
		sn := s.ToFormat(f, false)
		x := linalg.VecFromFloat64(f, []float64{1, 2, 3})
		y := linalg.NewVec(f, 3)
		sn.MatVecT(x, y, linalg.NewVec(f, 3))
		// Aᵀx = [1+15, 2+6, 8+18] = [16, 8, 26].
		got := linalg.VecToFloat64(f, y)
		for i, want := range []float64{16, 8, 26} {
			if got[i] != want {
				t.Fatalf("%s: MatVecT = %v", f.Name(), got)
			}
		}
	}
	// On a symmetric matrix MatVecT equals MatVec up to rounding order;
	// in float64 on small integers it is exact.
	sym := laplacian1D(6)
	f := arith.Float64
	sn := sym.ToFormat(f, false)
	x := linalg.VecFromFloat64(f, []float64{1, -2, 3, -4, 5, -6})
	y1 := linalg.NewVec(f, 6)
	y2 := linalg.NewVec(f, 6)
	sn.MatVec(x, y1)
	sn.MatVecT(x, y2, linalg.NewVec(f, 6))
	for i := range y1 {
		if f.ToFloat64(y1[i]) != f.ToFloat64(y2[i]) {
			t.Fatalf("symmetric MatVecT mismatch at %d", i)
		}
	}
}

// matVecTFormats mirrors the kernel differential universe of
// internal/arith: every registered format, the integer-pipeline
// references (the scalar kernel fallback), and a software binary32 on
// the value engine's IEEE branch.
func matVecTFormats() map[string]arith.Format {
	fs := map[string]arith.Format{}
	for _, name := range arith.Names() {
		fs[name] = arith.MustByName(name)
	}
	b32 := minifloat.MustNew(8, 23)
	fs["binary32soft"] = arith.FastMini(b32, "binary32")
	fs["binary32soft-slow"] = arith.Mini(b32, "binary32")
	fs["posit32e2-slow"] = arith.Posit(posit.Posit32e2)
	fs["posit16e2-slow"] = arith.Posit(posit.Posit16e2)
	fs["float16-slow"] = arith.Mini(minifloat.Float16, "Float16")
	return fs
}

// scatterMatVecT is MatVecT's defining scalar loop: zero y, then for
// every row with a nonzero x[i] scatter y[col] = Add(y[col],
// Mul(val, x[i])) in storage order.
func scatterMatVecT(m *linalg.SparseNum, x, y []arith.Num) {
	f := m.F
	for i := range y {
		y[i] = f.Zero()
	}
	for i := 0; i < m.N; i++ {
		if f.IsZero(x[i]) {
			continue
		}
		for idx := m.RowPtr[i]; idx < m.RowPtr[i+1]; idx++ {
			j := m.Col[idx]
			y[j] = f.Add(y[j], f.Mul(m.Val[idx], x[i]))
		}
	}
}

// TestMatVecTMatchesScatter runs the kernel-backed MatVecT against the
// scalar scatter on a nonsymmetric matrix (with an empty row) and an x
// holding zeros of both signs, NaR/NaN and wide magnitudes, in every
// format. Results must agree bit for bit (NaN by class).
func TestMatVecTMatchesScatter(t *testing.T) {
	const n = 60
	var entries []linalg.Entry
	for i := 0; i < n; i++ {
		if i == 17 {
			continue // empty row
		}
		for _, d := range []int{-7, -1, 0, 2, 11} {
			j := i + d
			if j < 0 || j >= n {
				continue
			}
			v := float64((i*31+j*7)%23-11) / 3
			if d == 0 {
				v += 9
			}
			entries = append(entries, linalg.Entry{Row: i, Col: j, Val: v * math.Ldexp(1, (i+j)%9-4)})
		}
	}
	s, err := linalg.NewSparseFromEntries(n, entries, false)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, n)
	for i := range xs {
		switch i % 9 {
		case 0:
			xs[i] = 0
		case 4:
			xs[i] = math.Copysign(0, -1)
		default:
			xs[i] = math.Ldexp(float64(i%13)-6.5, i%21-10) / 7
		}
	}
	xs[23] = math.NaN()
	for name, f := range matVecTFormats() {
		t.Run(name, func(t *testing.T) {
			m := s.ToFormat(f, false)
			x := linalg.VecFromFloat64(f, xs)
			want := linalg.NewVec(f, n)
			scatterMatVecT(m, x, want)
			got := linalg.NewVec(f, n)
			m.MatVecT(x, got, linalg.VecFromFloat64(f, xs)) // dirty scratch must not matter
			for i := range want {
				g, w := f.ToFloat64(got[i]), f.ToFloat64(want[i])
				if math.IsNaN(g) || math.IsNaN(w) {
					if math.IsNaN(g) != math.IsNaN(w) {
						t.Fatalf("y[%d] = %g, scatter = %g", i, g, w)
					}
					continue
				}
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("y[%d] = %g, scatter = %g", i, g, w)
				}
			}
		})
	}
}

func TestScaling(t *testing.T) {
	s := laplacian1D(3)
	s2 := s.Clone()
	s2.Scale(0.5)
	if s2.At(0, 0) != 1 || s2.At(0, 1) != -0.5 {
		t.Fatal("Scale failed")
	}
	s3 := s.Clone()
	s3.ScaleSym([]float64{1, 2, 3})
	// (DAD)[i][j] = d_i d_j a_ij
	if s3.At(0, 0) != 2 || s3.At(0, 1) != -2 || s3.At(1, 1) != 8 || s3.At(1, 2) != -6 {
		t.Fatalf("ScaleSym failed: %v %v %v %v", s3.At(0, 0), s3.At(0, 1), s3.At(1, 1), s3.At(1, 2))
	}
	if !s3.IsSymmetric(1e-15) {
		t.Fatal("two-sided scaling must preserve symmetry")
	}
}

func TestVectorOps(t *testing.T) {
	for _, f := range []arith.Format{arith.Float64, arith.Float32, arith.Posit32e2} {
		x := linalg.VecFromFloat64(f, []float64{1, 2, 3})
		y := linalg.VecFromFloat64(f, []float64{4, -5, 6})
		if got := f.ToFloat64(linalg.Dot(f, x, y)); got != 12 {
			t.Errorf("%s: dot = %g, want 12", f.Name(), got)
		}
		if got := f.ToFloat64(linalg.NormInf(f, y)); got != 6 {
			t.Errorf("%s: norminf = %g, want 6", f.Name(), got)
		}
		if got := f.ToFloat64(linalg.Norm2(f, linalg.VecFromFloat64(f, []float64{3, 4}))); got != 5 {
			t.Errorf("%s: norm2 = %g, want 5", f.Name(), got)
		}
		z := linalg.NewVec(f, 3)
		linalg.SubVec(f, z, x, y)
		if got := linalg.VecToFloat64(f, z); got[0] != -3 || got[1] != 7 || got[2] != -3 {
			t.Errorf("%s: subvec = %v", f.Name(), got)
		}
		linalg.Axpy(f, f.FromFloat64(2), x, y) // y += 2x
		if got := linalg.VecToFloat64(f, y); got[0] != 6 || got[1] != -1 || got[2] != 12 {
			t.Errorf("%s: axpy = %v", f.Name(), got)
		}
		linalg.Scal(f, f.FromFloat64(-1), x)
		if got := linalg.VecToFloat64(f, x); got[0] != -1 {
			t.Errorf("%s: scal = %v", f.Name(), got)
		}
	}
}

func TestHasBad(t *testing.T) {
	f := arith.Float16
	v := linalg.VecFromFloat64(f, []float64{1, 1e9, 2}) // overflows
	if !linalg.HasBad(f, v) {
		t.Fatal("overflowed vector must report bad")
	}
	p := arith.Posit16e2
	v2 := linalg.VecFromFloat64(p, []float64{1, 1e9, 2}) // clamps, no NaR
	if linalg.HasBad(p, v2) {
		t.Fatal("posit vector must clamp, not go bad")
	}
}

func TestNorm2F64OverflowSafe(t *testing.T) {
	x := []float64{3e300, 4e300}
	if got := linalg.Norm2F64(x); math.Abs(got-5e300) > 1e285 {
		t.Fatalf("overflow-safe norm = %g, want 5e300", got)
	}
	if got := linalg.Norm2F64([]float64{0, 0}); got != 0 {
		t.Fatalf("zero norm = %g", got)
	}
}

func TestTridiagEigenvalues(t *testing.T) {
	// Known: diag matrix.
	eigs, err := linalg.TridiagEigenvalues([]float64{3, 1, 2}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(eigs[i]-want[i]) > 1e-12 {
			t.Fatalf("diag eigs = %v", eigs)
		}
	}
	// Known: 1D Laplacian tridiag(-1, 2, -1), eigenvalues
	// 2 - 2cos(kπ/(n+1)).
	n := 20
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = -1
	}
	eigs, err = linalg.TridiagEigenvalues(d, e)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(eigs[k-1]-want) > 1e-10 {
			t.Fatalf("laplacian eig %d = %.15g, want %.15g", k, eigs[k-1], want)
		}
	}
	// 2x2 known: [[2,1],[1,2]] -> 1, 3.
	eigs, err = linalg.TridiagEigenvalues([]float64{2, 2}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eigs[0]-1) > 1e-12 || math.Abs(eigs[1]-3) > 1e-12 {
		t.Fatalf("2x2 eigs = %v", eigs)
	}
	// Dimension mismatch.
	if _, err := linalg.TridiagEigenvalues([]float64{1, 2}, []float64{}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestLanczosLaplacian(t *testing.T) {
	n := 100
	s := laplacian1D(n)
	lmin, lmax, err := linalg.Lanczos(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	wantMin := 2 - 2*math.Cos(math.Pi/float64(n+1))
	wantMax := 2 - 2*math.Cos(float64(n)*math.Pi/float64(n+1))
	if math.Abs(lmax-wantMax)/wantMax > 1e-8 {
		t.Errorf("lmax = %.12g, want %.12g", lmax, wantMax)
	}
	if math.Abs(lmin-wantMin)/wantMin > 1e-6 {
		t.Errorf("lmin = %.12g, want %.12g", lmin, wantMin)
	}
	if got := linalg.Norm2Est(s); math.Abs(got-wantMax)/wantMax > 1e-6 {
		t.Errorf("Norm2Est = %g, want %g", got, wantMax)
	}
	cond := linalg.CondEst(s)
	wantCond := wantMax / wantMin
	if math.Abs(cond-wantCond)/wantCond > 1e-4 {
		t.Errorf("CondEst = %g, want %g", cond, wantCond)
	}
}

func TestLanczosDiagonal(t *testing.T) {
	// Explicit spectrum: diag(1..50); extremes must be found exactly.
	n := 50
	var entries []linalg.Entry
	for i := 0; i < n; i++ {
		entries = append(entries, linalg.Entry{Row: i, Col: i, Val: float64(i + 1)})
	}
	s, _ := linalg.NewSparseFromEntries(n, entries, false)
	lmin, lmax, err := linalg.Lanczos(s, n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lmin-1) > 1e-8 || math.Abs(lmax-50) > 1e-8 {
		t.Fatalf("diag spectrum extremes = (%g, %g), want (1, 50)", lmin, lmax)
	}
}

func TestDense(t *testing.T) {
	s := laplacian1D(4)
	d := s.ToDense()
	if d.At(0, 0) != 2 || d.At(0, 1) != -1 || d.At(0, 3) != 0 {
		t.Fatal("ToDense wrong")
	}
	x := []float64{1, 2, 3, 4}
	ys, yd := make([]float64, 4), make([]float64, 4)
	s.MatVecF64(x, ys)
	d.MatVecF64(x, yd)
	for i := range ys {
		if ys[i] != yd[i] {
			t.Fatal("dense and sparse matvec disagree")
		}
	}
	// Format round trip.
	dn := d.ToFormat(arith.Posit32e2, false)
	back := dn.ToFloat64()
	for i := range back.A {
		if back.A[i] != d.A[i] {
			t.Fatal("dense format round-trip failed for exact values")
		}
	}
	if dn.HasBad() {
		t.Fatal("no exceptional entries expected")
	}
}
