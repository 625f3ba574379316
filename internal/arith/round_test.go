package arith

import (
	"math"
	"testing"

	"positlab/internal/minifloat"
	"positlab/internal/posit"
)

// tablesOf returns the value-domain rounding tables behind a fast
// format.
func tablesOf(t *testing.T, f Format) *roundTables {
	t.Helper()
	switch v := f.(type) {
	case fastPosit:
		return v.t
	case fastMini:
		return v.t
	}
	t.Fatalf("%s is not a value-domain format", f.Name())
	return nil
}

// TestHotRoundersAtBoundaries walks every scale with explicit fraction
// bits and, for several kept-bit patterns, puts the discarded bits at
// 0, half-1, half, half+1 and max — the edges of the double-rounding
// band and the carry into the next binade. roundHot must bail or equal
// round(x, false); roundTie must equal round(x, true), bailing only
// past the largest finite value. The value kernels' inline step must
// agree too: ScaleKernel by one rounds each x exactly as a product.
func TestHotRoundersAtBoundaries(t *testing.T) {
	for _, f := range []Format{
		FastPosit(posit.Posit32e2),
		FastPosit(posit.Posit32e3),
		FastPosit(posit.MustNew(24, 1)),
		FastMini(minifloat.MustNew(8, 23), "binary32"),
	} {
		t.Run(f.Name(), func(t *testing.T) {
			rt := tablesOf(t, f)
			xs := []float64{0, math.Copysign(0, -1)}
			scales := 0
			for s := rt.minScale; s <= rt.maxScale; s++ {
				fb := int(rt.fb[s-rt.minScale])
				if fb < 1 {
					continue
				}
				scales++
				drop := uint(52 - fb)
				half := uint64(1) << (drop - 1)
				top := uint64(1)<<fb - 1
				for _, kept := range []uint64{0, 1, 2, top - 1, top} {
					if kept > top {
						continue // fb = 1: no third pattern
					}
					for _, disc := range []uint64{0, half - 1, half, half + 1, 1<<drop - 1} {
						mant := kept<<drop | disc
						v := math.Float64frombits(uint64(s+1023)<<52 | mant)
						xs = append(xs, v, -v)
					}
				}
			}
			if scales == 0 {
				t.Fatal("no scale with explicit fraction bits")
			}
			for _, x := range xs {
				want, ok := rt.round(x, false)
				if v, hot := rt.roundHot(x); hot && (!ok || math.Float64bits(v) != math.Float64bits(want)) {
					t.Fatalf("roundHot(%x) = %x, round(x, false) = %x (ok=%v)",
						math.Float64bits(x), math.Float64bits(v), math.Float64bits(want), ok)
				}
				exact, _ := rt.round(x, true)
				v, tie := rt.roundTie(x)
				if !tie {
					if math.Abs(x) <= rt.maxFinV {
						t.Fatalf("roundTie(%x) bailed below the largest finite value", math.Float64bits(x))
					}
					continue
				}
				if math.Float64bits(v) != math.Float64bits(exact) {
					t.Fatalf("roundTie(%x) = %x, round(x, true) = %x",
						math.Float64bits(x), math.Float64bits(v), math.Float64bits(exact))
				}
			}
			// 1·x is exact, so the kernel must land on round(x, true):
			// inline when clear of the band, via mulVal and settle
			// otherwise.
			nums := make([]Num, len(xs))
			for i, x := range xs {
				nums[i] = n64(x)
			}
			BulkOf(f).ScaleKernel(f.One(), nums)
			for i, x := range xs {
				exact, _ := rt.round(x, true)
				if uint64(nums[i]) != math.Float64bits(exact) {
					t.Fatalf("ScaleKernel(1, %x) = %x, round(x, true) = %x",
						math.Float64bits(x), uint64(nums[i]), math.Float64bits(exact))
				}
			}
		})
	}
}
