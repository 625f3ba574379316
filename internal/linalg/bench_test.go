package linalg_test

import (
	"testing"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/solvers"
)

func benchMatVec(b *testing.B, f arith.Format) {
	a := laplacian1D(1000)
	an := a.ToFormat(f, false)
	x := linalg.NewVec(f, a.N)
	one := f.One()
	for i := range x {
		x[i] = one
	}
	y := linalg.NewVec(f, a.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.MatVec(x, y)
	}
}

func BenchmarkMatVec1000Float64(b *testing.B)   { benchMatVec(b, arith.Float64) }
func BenchmarkMatVec1000Float32(b *testing.B)   { benchMatVec(b, arith.Float32) }
func BenchmarkMatVec1000Float16(b *testing.B)   { benchMatVec(b, arith.Float16) }
func BenchmarkMatVec1000Posit32e2(b *testing.B) { benchMatVec(b, arith.Posit32e2) }
func BenchmarkMatVec1000Posit16e1(b *testing.B) { benchMatVec(b, arith.Posit16e1) }

// BenchmarkMatVecT1000Posit32e2 times BiCG's transposed product:
// per-row gathers through AxpyKernel.
func BenchmarkMatVecT1000Posit32e2(b *testing.B) {
	f := arith.Posit32e2
	an := laplacian1D(1000).ToFormat(f, false)
	x := linalg.NewVec(f, an.N)
	for i := range x {
		x[i] = f.FromFloat64(float64(i%13) - 6)
	}
	y, work := linalg.NewVec(f, an.N), linalg.NewVec(f, an.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.MatVecT(x, y, work)
	}
}

func BenchmarkMatVecF64Native(b *testing.B) {
	a := laplacian1D(1000)
	x := make([]float64, a.N)
	y := make([]float64, a.N)
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MatVecF64(x, y)
	}
}

func benchDot(b *testing.B, f arith.Format) {
	n := 1024
	x := linalg.NewVec(f, n)
	y := linalg.NewVec(f, n)
	for i := range x {
		x[i] = f.FromFloat64(float64(i%13) - 6)
		y[i] = f.FromFloat64(float64(i%7) - 3)
	}
	var sink arith.Num
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = linalg.Dot(f, x, y)
	}
	sinkNum = sink
}

var sinkNum arith.Num

func BenchmarkDot1024Float64(b *testing.B)   { benchDot(b, arith.Float64) }
func BenchmarkDot1024Float16(b *testing.B)   { benchDot(b, arith.Float16) }
func BenchmarkDot1024Posit32e2(b *testing.B) { benchDot(b, arith.Posit32e2) }
func BenchmarkDot1024Posit16e1(b *testing.B) { benchDot(b, arith.Posit16e1) }

// benchCholesky200 times the full kernel-backed factorization at the
// n=200 size used by the kernel-speedup records (the solvers package
// keeps its own n=100 series; this one stresses longer trailing rows).
func benchCholesky200(b *testing.B, f arith.Format) {
	a := laplacian1D(200).ToDense().ToFormat(f, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solvers.Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholesky200Float64(b *testing.B)   { benchCholesky200(b, arith.Float64) }
func BenchmarkCholesky200Float32(b *testing.B)   { benchCholesky200(b, arith.Float32) }
func BenchmarkCholesky200Float16(b *testing.B)   { benchCholesky200(b, arith.Float16) }
func BenchmarkCholesky200BFloat16(b *testing.B)  { benchCholesky200(b, arith.BFloat16) }
func BenchmarkCholesky200Posit32e2(b *testing.B) { benchCholesky200(b, arith.Posit32e2) }
func BenchmarkCholesky200Posit16e2(b *testing.B) { benchCholesky200(b, arith.Posit16e2) }
func BenchmarkCholesky200Posit16e1(b *testing.B) { benchCholesky200(b, arith.Posit16e1) }

func BenchmarkLanczos(b *testing.B) {
	a := laplacian1D(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := linalg.Lanczos(a, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymEigenvalues100(b *testing.B) {
	a := laplacian1D(100).ToDense()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.SymEigenvalues(a); err != nil {
			b.Fatal(err)
		}
	}
}
