package arith

import "math"

// Slice-level kernels.
//
// The solvers' wall time is dominated by per-scalar interface dispatch:
// every Add/Mul in a CG matvec or a Cholesky trailing update is a
// dynamic call on a Format. BulkFormat is the batched alternative — a
// format may implement whole-slice operations whose inner loops run
// with zero interface dispatch, while remaining bit-identical to the
// equivalent sequence of scalar Format calls. Every kernel is defined
// *as* a scalar-op sequence (documented per method); implementations
// may reorganize the work (value-domain loops, register-level
// rounding) but never the roundings themselves, which the differential
// tests in kernels_test.go assert format by format.
//
// Callers obtain kernels through BulkOf, which falls back to a generic
// scalar implementation so every Format — including instrumented
// wrappers and the slow integer-pipeline references — works unchanged.

// BulkFormat is the optional slice-kernel interface of a Format.
// Semantics, in terms of the format's scalar operations (all loops
// left-to-right over increasing i; no reordering, no fused
// accumulation):
//
//	DotKernel:            s = Zero; s = Add(s, Mul(x[i], y[i])); return s
//	AxpyKernel:           y[i] = Add(y[i], Mul(alpha, x[i]))
//	ScaleKernel:          x[i] = Mul(alpha, x[i])
//	MulAddKernel:         dst[i] = MulAdd(alpha, x[i], y[i])
//	MatVecKernel:         y[i] = Σ-loop of Add(·, Mul(val[idx], x[col[idx]]))
//	TrailingUpdateKernel: w[i] = MulAdd(nalpha, x[i], w[i])
//	DivKernel:            x[i] = Div(x[i], alpha)
//
// MulAddKernel may be called with dst aliasing x or y elementwise
// (dst[i] is written only after x[i] and y[i] are read).
// TrailingUpdateKernel takes the *negated* scale so the Cholesky
// update w ← w − α·x is expressible through MulAdd; by the sign
// symmetry of rounding, Add(Mul(Neg(α), x), w) is bit-identical to
// Sub(w, Mul(α, x)) in every supported format.
type BulkFormat interface {
	DotKernel(x, y []Num) Num
	AxpyKernel(alpha Num, x, y []Num)
	ScaleKernel(alpha Num, x []Num)
	MulAddKernel(alpha Num, x, y, dst []Num)
	// MatVecKernel computes the CSR product rows of y: for each local
	// row i (rowPtr has len(y)+1 entries), y[i] accumulates
	// val[idx]·x[col[idx]] for idx in [rowPtr[i], rowPtr[i+1]).
	// rowPtr may be a window into a larger matrix: col and val are
	// indexed absolutely, so sharded callers pass rowPtr[lo:hi+1] and
	// y[lo:hi].
	MatVecKernel(rowPtr, col []int, val []Num, x, y []Num)
	TrailingUpdateKernel(nalpha Num, x, w []Num)
	// DivKernel divides the slice elementwise by alpha — the Cholesky
	// row division by the pivot.
	DivKernel(alpha Num, x []Num)
}

// BulkOf returns f's slice kernels: f itself when it implements
// BulkFormat, otherwise a generic fallback over f's scalar operations.
// Hoist the result out of loops — the fallback wrapper is a fresh
// interface value per call.
func BulkOf(f Format) BulkFormat {
	if b, ok := f.(BulkFormat); ok {
		return b
	}
	return scalarKernels{f}
}

// scalarKernels implements every kernel as the defining scalar-op
// sequence, so any Format participates in the kernel layer unchanged.
// The mul-add pairs dispatch through Format.MulAdd — one dynamic call
// per element instead of two.
type scalarKernels struct{ f Format }

func (s scalarKernels) DotKernel(x, y []Num) Num {
	f := s.f
	acc := f.Zero()
	for i := range x {
		acc = f.MulAdd(x[i], y[i], acc)
	}
	return acc
}

func (s scalarKernels) AxpyKernel(alpha Num, x, y []Num) {
	f := s.f
	for i := range x {
		y[i] = f.MulAdd(alpha, x[i], y[i])
	}
}

func (s scalarKernels) ScaleKernel(alpha Num, x []Num) {
	f := s.f
	for i := range x {
		x[i] = f.Mul(alpha, x[i])
	}
}

func (s scalarKernels) MulAddKernel(alpha Num, x, y, dst []Num) {
	f := s.f
	for i := range x {
		dst[i] = f.MulAdd(alpha, x[i], y[i])
	}
}

func (s scalarKernels) MatVecKernel(rowPtr, col []int, val []Num, x, y []Num) {
	f := s.f
	for i := 0; i+1 < len(rowPtr); i++ {
		sum := f.Zero()
		for idx := rowPtr[i]; idx < rowPtr[i+1]; idx++ {
			sum = f.MulAdd(val[idx], x[col[idx]], sum)
		}
		y[i] = sum
	}
}

func (s scalarKernels) TrailingUpdateKernel(nalpha Num, x, w []Num) {
	f := s.f
	for i := range x {
		w[i] = f.MulAdd(nalpha, x[i], w[i])
	}
}

func (s scalarKernels) DivKernel(alpha Num, x []Num) {
	f := s.f
	for i := range x {
		x[i] = f.Div(x[i], alpha)
	}
}

// --- value-domain kernels (fast formats) ---

// valueKernels is the shared kernel engine of the fast value-domain
// formats (fastPosit, fastMini) outside the table engine — in practice
// those wider than 16 bits. The inner loops compute in float64 and
// repeat roundHot inline after every operation — one dropByE
// load and ~10 integer ops, no call and no interface dispatch — with
// exact zeros kept in the loop (canonical +0 for posits; IEEE keeps
// the float64 sign, as round does). Everything else (specials, region
// scales, the double-rounding band, overflow) calls the format's full
// addVal/mulVal, which *is* the scalar path and settles exact ties in
// registers. Resolving those ties inline instead (a TwoSum check in
// the band) measured ~20% slower on the posit32 experiments.
// Bit-identity with the scalar methods holds by construction: the
// inline step agrees with roundHot, roundHot with the general rounder
// whenever it succeeds, and an exact zero rounds to itself. Any
// deviation between these loops and roundHot is a bug; kernels_test.go
// and round_test.go pin them together differentially.
type valueKernels struct {
	t        *roundTables
	add, mul func(x, y float64) float64
}

func (k *valueKernels) dot(x, y []Num) Num {
	t := k.t
	drops, maxFin, ieee := &t.dropByE, t.maxFinBits, t.ieee
	y = y[:len(x)]
	s := 0.0
	for i := range x {
		xi, yi := f64(x[i]), f64(y[i])
		m := xi * yi
		ab := math.Float64bits(m)
		sb := ab & signBit64
		ab ^= sb
		if drop := uint(drops[ab>>52]); drop != 0 {
			disc := ab & (1<<drop - 1)
			half := uint64(1) << (drop - 1)
			if disc-(half-1) > 2 {
				rb := ab - disc
				if disc > half {
					rb += 1 << drop
				}
				if rb <= maxFin {
					m = math.Float64frombits(rb | sb)
					goto sum
				}
			}
		} else if ab == 0 {
			if !ieee {
				m = 0
			}
			goto sum
		}
		m = k.mul(xi, yi)
	sum:
		{
			r := s + m
			ab = math.Float64bits(r)
			sb = ab & signBit64
			ab ^= sb
			if drop := uint(drops[ab>>52]); drop != 0 {
				disc := ab & (1<<drop - 1)
				half := uint64(1) << (drop - 1)
				if disc-(half-1) > 2 {
					rb := ab - disc
					if disc > half {
						rb += 1 << drop
					}
					if rb <= maxFin {
						s = math.Float64frombits(rb | sb)
						continue
					}
				}
			} else if ab == 0 {
				if ieee {
					s = r
				} else {
					s = 0
				}
				continue
			}
			s = k.add(s, m)
		}
	}
	return n64(s)
}

func (k *valueKernels) scale(alpha Num, x []Num) {
	t := k.t
	drops, maxFin, ieee := &t.dropByE, t.maxFinBits, t.ieee
	a := f64(alpha)
	for i := range x {
		xi := f64(x[i])
		m := a * xi
		ab := math.Float64bits(m)
		sb := ab & signBit64
		ab ^= sb
		if drop := uint(drops[ab>>52]); drop != 0 {
			disc := ab & (1<<drop - 1)
			half := uint64(1) << (drop - 1)
			if disc-(half-1) > 2 {
				rb := ab - disc
				if disc > half {
					rb += 1 << drop
				}
				if rb <= maxFin {
					x[i] = Num(rb | sb)
					continue
				}
			}
		} else if ab == 0 {
			if ieee {
				x[i] = Num(sb)
			} else {
				x[i] = 0
			}
			continue
		}
		x[i] = n64(k.mul(a, xi))
	}
}

// fma computes dst[i] = Add(Mul(a, x[i]), y[i]) — the shared body of
// AxpyKernel (dst = y), MulAddKernel, and TrailingUpdateKernel; dst may
// alias x or y elementwise. For posits a zero x[i] leaves y[i] as is
// unless a is NaR: the product is +0, and y[i] + 0 rounds to y[i]. That
// skip is most of a banded Cholesky's trailing update.
func (k *valueKernels) fma(a float64, x, y, dst []Num) {
	t := k.t
	drops, maxFin, ieee := &t.dropByE, t.maxFinBits, t.ieee
	skipZero := !ieee && !math.IsNaN(a)
	y = y[:len(x)]
	dst = dst[:len(x)]
	for i := range x {
		if skipZero && x[i] == 0 {
			dst[i] = y[i]
			continue
		}
		xi := f64(x[i])
		m := a * xi
		ab := math.Float64bits(m)
		sb := ab & signBit64
		ab ^= sb
		if drop := uint(drops[ab>>52]); drop != 0 {
			disc := ab & (1<<drop - 1)
			half := uint64(1) << (drop - 1)
			if disc-(half-1) > 2 {
				rb := ab - disc
				if disc > half {
					rb += 1 << drop
				}
				if rb <= maxFin {
					m = math.Float64frombits(rb | sb)
					goto sum
				}
			}
		} else if ab == 0 {
			if !ieee {
				m = 0
			}
			goto sum
		}
		m = k.mul(a, xi)
	sum:
		{
			yi := f64(y[i])
			r := m + yi
			ab = math.Float64bits(r)
			sb = ab & signBit64
			ab ^= sb
			if drop := uint(drops[ab>>52]); drop != 0 {
				disc := ab & (1<<drop - 1)
				half := uint64(1) << (drop - 1)
				if disc-(half-1) > 2 {
					rb := ab - disc
					if disc > half {
						rb += 1 << drop
					}
					if rb <= maxFin {
						dst[i] = Num(rb | sb)
						continue
					}
				}
			} else if ab == 0 {
				if ieee {
					dst[i] = Num(sb)
				} else {
					dst[i] = 0
				}
				continue
			}
			dst[i] = n64(k.add(m, yi))
		}
	}
}

func (k *valueKernels) matVec(rowPtr, col []int, val []Num, x, y []Num) {
	t := k.t
	drops, maxFin, ieee := &t.dropByE, t.maxFinBits, t.ieee
	for i := 0; i+1 < len(rowPtr); i++ {
		s := 0.0
		for idx := rowPtr[i]; idx < rowPtr[i+1]; idx++ {
			vi, xi := f64(val[idx]), f64(x[col[idx]])
			m := vi * xi
			ab := math.Float64bits(m)
			sb := ab & signBit64
			ab ^= sb
			if drop := uint(drops[ab>>52]); drop != 0 {
				disc := ab & (1<<drop - 1)
				half := uint64(1) << (drop - 1)
				if disc-(half-1) > 2 {
					rb := ab - disc
					if disc > half {
						rb += 1 << drop
					}
					if rb <= maxFin {
						m = math.Float64frombits(rb | sb)
						goto sum
					}
				}
			} else if ab == 0 {
				if !ieee {
					m = 0
				}
				goto sum
			}
			m = k.mul(vi, xi)
		sum:
			{
				r := s + m
				ab = math.Float64bits(r)
				sb = ab & signBit64
				ab ^= sb
				if drop := uint(drops[ab>>52]); drop != 0 {
					disc := ab & (1<<drop - 1)
					half := uint64(1) << (drop - 1)
					if disc-(half-1) > 2 {
						rb := ab - disc
						if disc > half {
							rb += 1 << drop
						}
						if rb <= maxFin {
							s = math.Float64frombits(rb | sb)
							continue
						}
					}
				} else if ab == 0 {
					if ieee {
						s = r
					} else {
						s = 0
					}
					continue
				}
				s = k.add(s, m)
			}
		}
		y[i] = n64(s)
	}
}

// The fast formats dispatch to the table engine when eligible (ek set;
// see exact.go) and to the roundTables engine otherwise.

func (p fastPosit) DotKernel(x, y []Num) Num {
	if p.ek != nil {
		return p.ek.dot(x, y)
	}
	return p.kern.dot(x, y)
}
func (p fastPosit) AxpyKernel(alpha Num, x, y []Num) {
	if p.ek != nil {
		p.ek.fma(f64(alpha), x, y, y)
		return
	}
	p.kern.fma(f64(alpha), x, y, y)
}
func (p fastPosit) ScaleKernel(alpha Num, x []Num) {
	if p.ek != nil {
		p.ek.scale(alpha, x)
		return
	}
	p.kern.scale(alpha, x)
}
func (p fastPosit) MulAddKernel(a Num, x, y, dst []Num) {
	if p.ek != nil {
		p.ek.fma(f64(a), x, y, dst)
		return
	}
	p.kern.fma(f64(a), x, y, dst)
}
func (p fastPosit) MatVecKernel(rowPtr, col []int, val []Num, x, y []Num) {
	if p.ek != nil {
		p.ek.matVec(rowPtr, col, val, x, y)
		return
	}
	p.kern.matVec(rowPtr, col, val, x, y)
}
func (p fastPosit) TrailingUpdateKernel(nalpha Num, x, w []Num) {
	if p.ek != nil {
		p.ek.fma(f64(nalpha), x, w, w)
		return
	}
	p.kern.fma(f64(nalpha), x, w, w)
}
func (p fastPosit) DivKernel(alpha Num, x []Num) {
	if p.ek != nil {
		p.ek.divK(alpha, x)
		return
	}
	for i := range x {
		x[i] = p.Div(x[i], alpha)
	}
}

func (m fastMini) DotKernel(x, y []Num) Num {
	if m.ek != nil {
		return m.ek.dot(x, y)
	}
	return m.kern.dot(x, y)
}
func (m fastMini) AxpyKernel(alpha Num, x, y []Num) {
	if m.ek != nil {
		m.ek.fma(f64(alpha), x, y, y)
		return
	}
	m.kern.fma(f64(alpha), x, y, y)
}
func (m fastMini) ScaleKernel(alpha Num, x []Num) {
	if m.ek != nil {
		m.ek.scale(alpha, x)
		return
	}
	m.kern.scale(alpha, x)
}
func (m fastMini) MulAddKernel(a Num, x, y, dst []Num) {
	if m.ek != nil {
		m.ek.fma(f64(a), x, y, dst)
		return
	}
	m.kern.fma(f64(a), x, y, dst)
}
func (m fastMini) MatVecKernel(rowPtr, col []int, val []Num, x, y []Num) {
	if m.ek != nil {
		m.ek.matVec(rowPtr, col, val, x, y)
		return
	}
	m.kern.matVec(rowPtr, col, val, x, y)
}
func (m fastMini) TrailingUpdateKernel(nalpha Num, x, w []Num) {
	if m.ek != nil {
		m.ek.fma(f64(nalpha), x, w, w)
		return
	}
	m.kern.fma(f64(nalpha), x, w, w)
}
func (m fastMini) DivKernel(alpha Num, x []Num) {
	if m.ek != nil {
		m.ek.divK(alpha, x)
		return
	}
	for i := range x {
		x[i] = m.Div(x[i], alpha)
	}
}

// --- native kernels (hardware formats) ---
//
// float64 and float32 round natively, so their kernels are plain
// loops. Explicit conversions pin every intermediate to one rounding
// (the Go spec otherwise permits fusing x*y+z into an FMA).

func (f float64Format) DotKernel(x, y []Num) Num {
	s := 0.0
	for i := range x {
		s += float64(f64(x[i]) * f64(y[i]))
	}
	return n64(s)
}

func (f float64Format) AxpyKernel(alpha Num, x, y []Num) {
	a := f64(alpha)
	for i := range x {
		y[i] = n64(f64(y[i]) + float64(a*f64(x[i])))
	}
}

func (f float64Format) ScaleKernel(alpha Num, x []Num) {
	a := f64(alpha)
	for i := range x {
		x[i] = n64(a * f64(x[i]))
	}
}

func (f float64Format) MulAddKernel(alpha Num, x, y, dst []Num) {
	a := f64(alpha)
	for i := range x {
		dst[i] = n64(float64(a*f64(x[i])) + f64(y[i]))
	}
}

func (f float64Format) MatVecKernel(rowPtr, col []int, val []Num, x, y []Num) {
	for i := 0; i+1 < len(rowPtr); i++ {
		s := 0.0
		for idx := rowPtr[i]; idx < rowPtr[i+1]; idx++ {
			s += float64(f64(val[idx]) * f64(x[col[idx]]))
		}
		y[i] = n64(s)
	}
}

func (f float64Format) TrailingUpdateKernel(nalpha Num, x, w []Num) {
	a := f64(nalpha)
	for i := range x {
		w[i] = n64(float64(a*f64(x[i])) + f64(w[i]))
	}
}

func (f float64Format) DivKernel(alpha Num, x []Num) {
	a := f64(alpha)
	for i := range x {
		x[i] = n64(f64(x[i]) / a)
	}
}

func (f float32Format) DotKernel(x, y []Num) Num {
	s := float32(0)
	for i := range x {
		s += float32(f32(x[i]) * f32(y[i]))
	}
	return n32(s)
}

func (f float32Format) AxpyKernel(alpha Num, x, y []Num) {
	a := f32(alpha)
	for i := range x {
		y[i] = n32(f32(y[i]) + float32(a*f32(x[i])))
	}
}

func (f float32Format) ScaleKernel(alpha Num, x []Num) {
	a := f32(alpha)
	for i := range x {
		x[i] = n32(a * f32(x[i]))
	}
}

func (f float32Format) MulAddKernel(alpha Num, x, y, dst []Num) {
	a := f32(alpha)
	for i := range x {
		dst[i] = n32(float32(a*f32(x[i])) + f32(y[i]))
	}
}

func (f float32Format) MatVecKernel(rowPtr, col []int, val []Num, x, y []Num) {
	for i := 0; i+1 < len(rowPtr); i++ {
		s := float32(0)
		for idx := rowPtr[i]; idx < rowPtr[i+1]; idx++ {
			s += float32(f32(val[idx]) * f32(x[col[idx]]))
		}
		y[i] = n32(s)
	}
}

func (f float32Format) TrailingUpdateKernel(nalpha Num, x, w []Num) {
	a := f32(nalpha)
	for i := range x {
		w[i] = n32(float32(a*f32(x[i])) + f32(w[i]))
	}
}

func (f float32Format) DivKernel(alpha Num, x []Num) {
	a := f32(alpha)
	for i := range x {
		x[i] = n32(f32(x[i]) / a)
	}
}
