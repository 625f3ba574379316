package arith

import (
	"math"

	"positlab/internal/bigfp"
	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

// Fast value-domain formats.
//
// Every format in this study embeds exactly into float64 (at most 28
// significand bits, scales within ±496), so a Num can carry the
// *value* as float64 bits instead of the format's encoding. Operations
// then run as native float64 arithmetic followed by a table-driven
// re-rounding into the format's value set — roughly 6x faster than the
// integer-pipeline formats, which matters on the O(n³) factorizations.
//
// Correct rounding is preserved exactly. The hazard of computing
// through float64 is double rounding: the float64-rounded result can
// sit so close to a rounding boundary of the target format that it
// rounds differently than the exact result would. The hot rounder
// (roundHot, and its inline copies in the value kernels) treats
// discarded bits within one 53-bit ulp of the halfway pattern as
// ambiguous and bails, as it does for exact zeros outside the kernels,
// specials, the regime-cut scales near minpos/maxpos and overflow.
// settle then takes over: a result proven exact (TwoSum or FMA
// residual zero) is a genuine tie or a zero and rounds in registers
// (roundTie); anything else goes through the general rounder, and a
// still-ambiguous inexact result through the exact integer pipeline.
// Bail-outs are not rare: sums of nearby values are often exact ties.
// On one repro32 pass of the benchmark (fig6-fig9 and ext-bicg on four
// Table I matrices) the value kernels rounded 56M results inline while
// settle ran 3.2M times (kernel fallbacks and scalar ops together),
// all but a few hundred on exact results; none reached the integer
// pipeline. Differential tests assert the fast path is bit-identical
// to the slow one.

// roundTables drives value-domain rounding for one format.
type roundTables struct {
	minScale int // scale of the smallest positive value
	maxScale int // scale of the largest finite value
	// fb[s-minScale]: explicit fraction bits at scale s. Negative
	// values mark scales where the cut reaches the exponent/regime
	// fields (posits near the ends, IEEE deep subnormals); those go
	// through the region tables below.
	fb []int8
	// Region tables, populated where fb <= 0: the bracketing
	// representable values around 2^s, the rounding midpoint between
	// them, and the parity of the lower pattern (for ties).
	down, up, mid []float64
	downOdd       []bool
	minPosV       float64 // smallest positive value
	maxFinV       float64 // largest finite value
	// maxFinBits is math.Float64bits(maxFinV), for the bit-domain
	// overflow check on the kernel hot path.
	maxFinBits uint64
	// dropByE[e] for a float64 biased exponent e: the mantissa bits to
	// discard at that scale, or 0 where the hot path must not round
	// inline (zeros, specials, region scales, out of range) — the same
	// one-load dispatch as Tables.dropByE.
	dropByE [2048]uint8
	// posit: overflow clamps to maxFinV and underflow to minPosV;
	// IEEE: overflow rounds to +Inf and underflow to zero.
	ieee bool
}

// initDrops derives dropByE from fb; both constructors call it once fb
// is filled.
func (t *roundTables) initDrops() {
	for i, b := range t.fb {
		if e := t.minScale + i + 1023; b >= 1 && b <= 51 && e > 0 && e < 2047 {
			t.dropByE[e] = uint8(52 - int(b))
		}
	}
}

// roundHot rounds x on the common path — finite, nonzero, in a scale
// region with explicit fraction bits, away from any double-rounding
// ambiguity, and not overflowing — entirely in integer registers.
// ok=false sends the caller to settle; whenever roundHot succeeds the
// result is bit-identical to round(x, false). The valueKernels loops
// repeat this step inline (roundHot itself is over the inliner's
// budget).
func (t *roundTables) roundHot(x float64) (float64, bool) {
	ab := math.Float64bits(x)
	sb := ab & signBit64
	ab ^= sb
	drop := uint(t.dropByE[ab>>52])
	if drop == 0 {
		return 0, false
	}
	disc := ab & (1<<drop - 1)
	half := uint64(1) << (drop - 1)
	// Ambiguous double-rounding band: disc ∈ {half-1, half, half+1}.
	if disc-(half-1) <= 2 {
		return 0, false
	}
	rb := ab - disc
	if disc > half {
		// Round up; a mantissa carry flows into the exponent field and
		// lands exactly on the next power of two.
		rb += 1 << drop
	}
	if rb > t.maxFinBits {
		return 0, false // overflow: the general rounder clamps or infs
	}
	return math.Float64frombits(rb | sb), true
}

// roundTie is roundHot for an x known to be the exact result: there is
// no ambiguity band, and disc == half is a genuine tie, rounded to the
// even pattern by the kept-bit parity (the pattern of 2^s has a zero
// fraction field wherever there are explicit fraction bits). Exact
// zeros round here too. Whenever it succeeds the result is
// bit-identical to round(x, true). It stays a separate function: one
// rounder with an exact flag made the scalar Add/Mul path ~1.6x slower.
func (t *roundTables) roundTie(x float64) (float64, bool) {
	ab := math.Float64bits(x)
	sb := ab & signBit64
	ab ^= sb
	drop := uint(t.dropByE[ab>>52])
	if drop == 0 {
		if ab != 0 {
			return 0, false
		}
		if t.ieee {
			return x, true // IEEE keeps the zero's sign
		}
		return 0, true // posit has a single zero
	}
	disc := ab & (1<<drop - 1)
	half := uint64(1) << (drop - 1)
	rb := ab - disc
	if disc > half || (disc == half && ab&(1<<drop) != 0) {
		rb += 1 << drop
	}
	if rb > t.maxFinBits {
		return 0, false
	}
	return math.Float64frombits(rb | sb), true
}

// settle rounds an operation's float64 result r once roundHot has
// bailed. exact reports that r is the exact result, so its ties are
// genuine and it always settles; an inexact r in the ambiguity band
// returns ok=false, and the caller reruns the operation through the
// integer pipeline.
func (t *roundTables) settle(r float64, exact bool) (float64, bool) {
	if exact {
		if v, ok := t.roundTie(r); ok {
			return v, true
		}
		return t.round(r, true)
	}
	return t.round(r, false)
}

// round rounds a float64 to the format's value set with round-to-
// nearest-even in the format's own tie semantics. ok=false reports an
// ambiguous double-rounding case the caller must resolve — either by
// proving x is the exact result (re-round with exact=true; common for
// sums, whose ties are real) or through the integer pipeline.
func (t *roundTables) round(x float64, exact bool) (v float64, ok bool) {
	if x == 0 {
		if t.ieee {
			return x, true // IEEE keeps the zero's sign
		}
		return 0, true // posit has a single zero
	}
	if math.IsNaN(x) {
		return x, true
	}
	if math.IsInf(x, 0) {
		if t.ieee {
			return x, true
		}
		return math.NaN(), true // posit: infinite intermediates are NaR
	}
	neg := math.Signbit(x)
	a := math.Abs(x)
	bits := math.Float64bits(a)
	exp := int(bits>>52) - 1023
	if bits>>52 == 0 {
		exp = -1023 // subnormal float64: far below every format's range
	}

	if exp < t.minScale {
		// Below the smallest representable scale. The region entry at
		// minScale handles values just under minpos via its midpoint;
		// anything under half of minpos lands here.
		if t.ieee {
			// exp < minScale = emin-frac-1 means a < minsub/2, which
			// rounds to zero — unless a sits within an ulp of the
			// halfway point, which is ambiguous.
			if !exact && closeTo(a, t.minPosV/2) {
				return 0, false
			}
			return signed(0, neg), true
		}
		return signed(t.minPosV, neg), true // posits never round to zero
	}
	if exp > t.maxScale {
		if t.ieee {
			// Beyond 2^(maxScale+1): certainly infinity. Between
			// maxFin and 2^(maxScale+1) the region entry at maxScale
			// decides; exp > maxScale means at least 2^(maxScale+1),
			// which is past the overflow threshold.
			return signed(math.Inf(1), neg), true
		}
		return signed(t.maxFinV, neg), true
	}

	idx := exp - t.minScale
	fbits := int(t.fb[idx])
	if fbits >= 1 {
		drop := uint(52 - fbits)
		mant := bits & (1<<52 - 1)
		kept := mant >> drop
		discarded := mant & (1<<drop - 1)
		half := uint64(1) << (drop - 1)
		// Ambiguity: discarded within one 53-bit ulp of halfway. If x
		// is known exact, discarded == half is a genuine tie and the
		// neighbors are unambiguous.
		if !exact && discarded >= half-1 && discarded <= half+1 {
			return 0, false
		}
		if discarded > half || (discarded == half && kept&1 == 1) {
			kept++
		}
		v = math.Ldexp(float64((1<<uint(fbits))+kept), exp-fbits)
		if v > t.maxFinV {
			if t.ieee {
				v = math.Inf(1)
			} else {
				v = t.maxFinV
			}
		}
		return signed(v, neg), true
	}

	// Region path: zero or negative fraction bits — the value rounds
	// between down[s] and up[s] with the format's own midpoint.
	down, up, mid := t.down[idx], t.up[idx], t.mid[idx]
	if !exact && closeTo(a, mid) {
		return 0, false
	}
	switch {
	case a < mid:
		v = down
	case a > mid:
		v = up
	default: // exact tie: even pattern
		if t.downOdd[idx] {
			v = up
		} else {
			v = down
		}
	}
	if v > t.maxFinV {
		if t.ieee {
			v = math.Inf(1)
		} else {
			v = t.maxFinV
		}
	}
	if v == 0 && !t.ieee {
		v = t.minPosV
	}
	return signed(v, neg), true
}

func signed(v float64, neg bool) float64 {
	if neg {
		return -v
	}
	return v
}

// sumExact reports whether r = x + y held exactly in float64 (TwoSum
// residual is zero).
func sumExact(x, y, r float64) bool {
	bv := r - x
	return (x-(r-bv))+(y-bv) == 0
}

// mulExact reports whether r = x * y held exactly in float64.
func mulExact(x, y, r float64) bool {
	return math.FMA(x, y, -r) == 0
}

// divExact reports whether r = x / y held exactly in float64.
func divExact(x, y, r float64) bool {
	return math.FMA(r, y, -x) == 0
}

// sqrtExact reports whether r = sqrt(x) held exactly in float64.
func sqrtExact(x, r float64) bool {
	return math.FMA(r, r, -x) == 0
}

// closeTo reports |a-b| within one float64 ulp, via pattern distance
// (both positive finite).
func closeTo(a, b float64) bool {
	ba, bb := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	d := ba - bb
	return d >= -1 && d <= 1
}

// --- fast posit ---

type fastPosit struct {
	c    posit.Config
	t    *roundTables
	kern *valueKernels
	// ek is the exhaustive lookup-table engine, set for formats of at
	// most 16 bits (see exact.go); nil means the roundTables path.
	ek *exactKernels
}

// FastPosit builds the value-domain implementation of a posit format.
// It is bit-compatible with Posit(c) in results; only the Num encoding
// differs (float64 value bits instead of posit patterns). 8-bit
// configurations get the fully tabulated ALU instead (posit.Table8);
// wider formats up to 16 bits get the table-driven rounding engine.
func FastPosit(c posit.Config) Format {
	if c.N() == 8 {
		return newTable8Format(c)
	}
	t := &roundTables{
		minScale: c.MinScale(),
		maxScale: c.MaxScale(),
		minPosV:  c.ToFloat64(c.MinPos()),
		maxFinV:  c.ToFloat64(c.MaxPos()),
	}
	t.maxFinBits = math.Float64bits(t.maxFinV)
	n := t.maxScale - t.minScale + 1
	t.fb = make([]int8, n)
	t.down = make([]float64, n)
	t.up = make([]float64, n)
	t.mid = make([]float64, n)
	t.downOdd = make([]bool, n)
	for s := t.minScale; s <= t.maxScale; s++ {
		i := s - t.minScale
		t.fb[i] = int8(rawFracBits(c, s))
		if t.fb[i] >= 1 {
			continue
		}
		// Largest posit <= 2^s.
		p := c.FromFloat64(math.Ldexp(1, s))
		if c.ToFloat64(p) > math.Ldexp(1, s) {
			p = c.Prev(p)
		}
		t.down[i] = c.ToFloat64(p)
		if p == c.MaxPos() {
			t.up[i] = math.Inf(1)
		} else {
			t.up[i] = c.ToFloat64(c.Next(p))
		}
		// Pattern-space midpoint: the (n+1)-bit posit 2p+1.
		mv := bigfp.PatternValue(c.N()+1, c.ES(), uint64(p)*2+1)
		t.mid[i], _ = mv.Float64()
		t.downOdd[i] = uint64(p)&1 == 1
	}
	t.initDrops()
	fp := fastPosit{c: c, t: t}
	if c.N() <= 16 {
		// Every posit with n <= 16 is exact-product eligible: at most
		// 14 significand bits and |scale| <= 224 (see exact.go).
		fp.ek = &exactKernels{lt: lazyTables{build: func() *Tables { return tablesForPosit(c) }}}
	}
	// The kernel engine's rare-path closures capture fp by value; they
	// only use c and t, so the nil kern inside the copy is harmless.
	fp.kern = &valueKernels{t: t, add: fp.addVal, mul: fp.mulVal}
	return fp
}

// rawFracBits is FracBitsAtScale without the clamp at zero: negative
// values count exponent bits cut off by the regime.
func rawFracBits(c posit.Config, scale int) int {
	pow := 1 << uint(c.ES())
	k := scale / pow
	if scale%pow != 0 && scale < 0 {
		k--
	}
	var rlen int
	if k >= 0 {
		rlen = k + 2
	} else {
		rlen = -k + 1
	}
	return c.N() - 1 - rlen - c.ES()
}

func (p fastPosit) Name() string { return p.c.String() }

func (p fastPosit) FromFloat64(x float64) Num {
	// An external float64 is its own exact value: ties are genuine.
	v, _ := p.t.round(x, true)
	return n64(v)
}

func (p fastPosit) ToFloat64(a Num) float64 { return f64(a) }

// exact2 reruns a binary operation through the integer pipeline.
func (p fastPosit) exact2(op func(posit.Config, posit.Bits, posit.Bits) posit.Bits, a, b float64) Num {
	r := op(p.c, p.c.FromFloat64(a), p.c.FromFloat64(b))
	return n64(p.c.ToFloat64(r))
}

// addVal and mulVal are Add and Mul in the value domain (float64 in,
// float64 out); the Format methods and the slice kernels share them so
// both paths round identically by construction.
func (p fastPosit) addVal(x, y float64) float64 {
	r := x + y
	if v, ok := p.t.roundHot(r); ok {
		return v
	}
	if v, ok := p.t.settle(r, sumExact(x, y, r)); ok {
		return v
	}
	return f64(p.exact2(posit.Config.Add, x, y))
}

func (p fastPosit) mulVal(x, y float64) float64 {
	r := x * y
	if v, ok := p.t.roundHot(r); ok {
		return v
	}
	if v, ok := p.t.settle(r, mulExact(x, y, r)); ok {
		return v
	}
	return f64(p.exact2(posit.Config.Mul, x, y))
}

func (p fastPosit) Add(a, b Num) Num {
	if p.ek != nil {
		return n64(p.ek.add(f64(a), f64(b)))
	}
	return n64(p.addVal(f64(a), f64(b)))
}

// Sub(a, b) = Add(a, -b): rounding is sign-symmetric and -y is exact.
func (p fastPosit) Sub(a, b Num) Num {
	x, y := f64(a), -f64(b)
	if p.ek != nil {
		return n64(p.ek.add(x, y))
	}
	return n64(p.addVal(x, y))
}

func (p fastPosit) Mul(a, b Num) Num {
	if p.ek != nil {
		return n64(p.ek.mul(f64(a), f64(b)))
	}
	return n64(p.mulVal(f64(a), f64(b)))
}

// MulAdd fuses the pair in the value domain: product rounded, then sum
// rounded — bit-identical to Add(Mul(a, b), c) with one dispatch.
func (p fastPosit) MulAdd(a, b, c Num) Num {
	if p.ek != nil {
		return n64(p.ek.add(p.ek.mul(f64(a), f64(b)), f64(c)))
	}
	return n64(p.addVal(p.mulVal(f64(a), f64(b)), f64(c)))
}

func (p fastPosit) Div(a, b Num) Num {
	x, y := f64(a), f64(b)
	if p.ek != nil {
		return n64(p.ek.div(x, y))
	}
	if y == 0 {
		return n64(math.NaN()) // posit: division by zero is NaR
	}
	r := x / y
	if v, ok := p.t.roundHot(r); ok {
		return n64(v)
	}
	if v, ok := p.t.settle(r, divExact(x, y, r)); ok {
		return n64(v)
	}
	return p.exact2(posit.Config.Div, x, y)
}

func (p fastPosit) Sqrt(a Num) Num {
	x := f64(a)
	if p.ek != nil {
		return n64(p.ek.sqrtVal(x))
	}
	if x < 0 {
		return n64(math.NaN())
	}
	r := math.Sqrt(x)
	if v, ok := p.t.roundHot(r); ok {
		return n64(v)
	}
	if v, ok := p.t.settle(r, sqrtExact(x, r)); ok {
		return n64(v)
	}
	rp := p.c.Sqrt(p.c.FromFloat64(x))
	return n64(p.c.ToFloat64(rp))
}

func (p fastPosit) Neg(a Num) Num {
	v := -f64(a)
	if v == 0 {
		v = 0 // posit has a single (positive) zero
	}
	return n64(v)
}
func (p fastPosit) Zero() Num         { return n64(0) }
func (p fastPosit) One() Num          { return n64(1) }
func (p fastPosit) IsZero(a Num) bool { return f64(a) == 0 }
func (p fastPosit) Bad(a Num) bool    { return math.IsNaN(f64(a)) }
func (p fastPosit) Less(a, b Num) bool {
	return f64(a) < f64(b)
}
func (p fastPosit) Eps() float64 {
	return math.Ldexp(1, -(p.c.FracBitsAtScale(0) + 1))
}
func (p fastPosit) MaxValue() float64 { return p.t.maxFinV }

// Config exposes the posit configuration (see PositConfig).
func (p fastPosit) Config() posit.Config { return p.c }

// --- fast minifloat ---

type fastMini struct {
	f    minifloat.Format
	name string
	t    *roundTables
	kern *valueKernels
	// ek is the exhaustive lookup-table engine, set for eligible
	// formats of at most 16 bits (see exact.go); nil means the
	// roundTables path.
	ek *exactKernels
}

// exactEligibleMini reports whether an IEEE format qualifies for the
// table engine: tables must fit 2^16 entries and the product of any
// two format values must be a normal float64 (exactness of the kernel
// products; see exact.go).
func exactEligibleMini(f minifloat.Format) bool {
	frac := f.FracBits()
	return f.Width() <= 16 &&
		2*(frac+1) <= 53 &&
		2*f.Emax()+2 <= 1022 &&
		2*(f.Emin()-frac) >= -1020
}

// FastMini builds the value-domain implementation of an IEEE small
// format, bit-compatible in results with the minifloat integer
// pipeline.
func FastMini(f minifloat.Format, name string) Format {
	frac := f.FracBits()
	t := &roundTables{
		ieee:     true,
		minScale: f.Emin() - frac - 1, // scale of the sub-minsub tie region
		maxScale: f.Emax(),
		minPosV:  f.ToFloat64(f.MinSubnormal()),
		maxFinV:  f.MaxValue(),
	}
	t.maxFinBits = math.Float64bits(t.maxFinV)
	n := t.maxScale - t.minScale + 1
	t.fb = make([]int8, n)
	t.down = make([]float64, n)
	t.up = make([]float64, n)
	t.mid = make([]float64, n)
	t.downOdd = make([]bool, n)
	for s := t.minScale; s <= t.maxScale; s++ {
		i := s - t.minScale
		fb := frac
		if s < f.Emin() {
			fb = s - (f.Emin() - frac)
		}
		t.fb[i] = int8(fb)
		if fb >= 1 {
			continue
		}
		// down = largest representable <= 2^s; IEEE midpoints are
		// arithmetic means of adjacent representables.
		down := math.Ldexp(1, s)
		var downPat uint64
		switch {
		case fb == 0 && s >= f.Emin()-frac:
			downPat = uint64(f.FromFloat64(down))
		default: // s = emin-frac-1: below the smallest subnormal
			down = 0
			downPat = 0
		}
		up := t.minPosV
		if down != 0 {
			upPat := downPat + 1
			up = f.ToFloat64(minifloat.Bits(upPat))
		}
		t.down[i] = down
		t.up[i] = up
		t.mid[i] = (down + up) / 2
		t.downOdd[i] = downPat&1 == 1
	}
	t.initDrops()
	fm := fastMini{f: f, name: name, t: t}
	if exactEligibleMini(f) {
		fm.ek = &exactKernels{lt: lazyTables{build: func() *Tables { return tablesForMini(f) }}}
	}
	fm.kern = &valueKernels{t: t, add: fm.addVal, mul: fm.mulVal}
	return fm
}

func (m fastMini) Name() string { return m.name }

func (m fastMini) FromFloat64(x float64) Num {
	// An external float64 is its own exact value: ties are genuine.
	v, _ := m.t.round(x, true)
	return n64(v)
}

func (m fastMini) ToFloat64(a Num) float64 { return f64(a) }

func (m fastMini) exact2(op func(minifloat.Format, minifloat.Bits, minifloat.Bits) minifloat.Bits, a, b float64) Num {
	r := op(m.f, m.f.FromFloat64(a), m.f.FromFloat64(b))
	return n64(m.f.ToFloat64(r))
}

// addVal and mulVal are Add and Mul in the value domain, shared by the
// Format methods and the slice kernels (see fastPosit).
func (m fastMini) addVal(x, y float64) float64 {
	r := x + y
	if v, ok := m.t.roundHot(r); ok {
		return v
	}
	if v, ok := m.t.settle(r, sumExact(x, y, r)); ok {
		return v
	}
	return f64(m.exact2(minifloat.Format.Add, x, y))
}

func (m fastMini) mulVal(x, y float64) float64 {
	r := x * y
	if v, ok := m.t.roundHot(r); ok {
		return v
	}
	if v, ok := m.t.settle(r, mulExact(x, y, r)); ok {
		return v
	}
	return f64(m.exact2(minifloat.Format.Mul, x, y))
}

func (m fastMini) Add(a, b Num) Num {
	if m.ek != nil {
		return n64(m.ek.add(f64(a), f64(b)))
	}
	return n64(m.addVal(f64(a), f64(b)))
}

// Sub is Add(a, -b), as for posits: x - y and x + (-y) are the same
// IEEE operation, signed zeros included.
func (m fastMini) Sub(a, b Num) Num {
	x, y := f64(a), -f64(b)
	if m.ek != nil {
		return n64(m.ek.add(x, y))
	}
	return n64(m.addVal(x, y))
}

func (m fastMini) Mul(a, b Num) Num {
	if m.ek != nil {
		return n64(m.ek.mul(f64(a), f64(b)))
	}
	return n64(m.mulVal(f64(a), f64(b)))
}

// MulAdd fuses the pair in the value domain (see fastPosit.MulAdd).
func (m fastMini) MulAdd(a, b, c Num) Num {
	if m.ek != nil {
		return n64(m.ek.add(m.ek.mul(f64(a), f64(b)), f64(c)))
	}
	return n64(m.addVal(m.mulVal(f64(a), f64(b)), f64(c)))
}

func (m fastMini) Div(a, b Num) Num {
	x, y := f64(a), f64(b)
	if m.ek != nil {
		return n64(m.ek.div(x, y))
	}
	r := x / y
	if v, ok := m.t.roundHot(r); ok {
		return n64(v)
	}
	if v, ok := m.t.settle(r, divExact(x, y, r)); ok {
		return n64(v)
	}
	return m.exact2(minifloat.Format.Div, x, y)
}

func (m fastMini) Sqrt(a Num) Num {
	x := f64(a)
	if m.ek != nil {
		return n64(m.ek.sqrtVal(x))
	}
	r := math.Sqrt(x)
	if v, ok := m.t.roundHot(r); ok {
		return n64(v)
	}
	if v, ok := m.t.settle(r, sqrtExact(x, r)); ok {
		return n64(v)
	}
	rp := m.f.Sqrt(m.f.FromFloat64(x))
	return n64(m.f.ToFloat64(rp))
}

func (m fastMini) Neg(a Num) Num     { return n64(-f64(a)) }
func (m fastMini) Zero() Num         { return n64(0) }
func (m fastMini) One() Num          { return n64(1) }
func (m fastMini) IsZero(a Num) bool { return f64(a) == 0 }
func (m fastMini) Bad(a Num) bool {
	v := f64(a)
	return math.IsNaN(v) || math.IsInf(v, 0)
}
func (m fastMini) Less(a, b Num) bool { return f64(a) < f64(b) }
func (m fastMini) Eps() float64 {
	return math.Ldexp(1, -(m.f.FracBits() + 1))
}
func (m fastMini) MaxValue() float64 { return m.t.maxFinV }
