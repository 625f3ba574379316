package main

import (
	"math/bits"
	"sort"
	"syscall"
	"time"
)

// Calibration. Every time the benchmark reports is scaled by
// calibRefMS / calibMS, where calibMS is the time of calibLoop measured
// in the same process right before and right after the timed work. The
// loop is the benchmark's own: it runs no repository code, so its time
// moves only with the host (frequency, co-tenants, cache pressure), and
// dividing by it takes most of that drift out of the reported figures.
//
// Half of the loop's time is what the posit pipelines are made of:
// integer bit manipulation (shifts, leading-zero counts, rotates) and
// float64 multiply-add over a 96 KiB working set in L1/L2. The other
// half is random read-modify-writes over 8 MiB, which miss
// L2 and hit the shared L3. On a shared host the workloads slow down
// about twice as much (in log terms) as an L1/L2-only loop does; with
// the L3 half they move about one for one with the loop (see README.md).

// calibRefMS is the median calibLoop time on the reference host (a
// 2-vCPU Xeon, go1.24). It only fixes the scale, so calibrated figures
// stay in ms and s and read close to raw ones on that host.
const calibRefMS = 10.0

const (
	calibRounds  = 115    // passes over the L1/L2 working set per sample
	calibSteps   = 200000 // random L3 accesses per sample
	calibSamples = 5      // samples per measurement; the median is kept
)

var (
	calibInts   [8192]uint64  // 64 KiB
	calibFloats [4096]float64 // 32 KiB
	calibFar    = farBuffer()
	calibSink   float64
)

func init() {
	s := uint64(0x9e3779b97f4a7c15)
	for i := range calibInts {
		s = xorshift(s)
		calibInts[i] = s
	}
	for i := range calibFloats {
		calibFloats[i] = 1 + float64(i%97)/97
	}
}

// calibFarBytes is the size of the L3 part's buffer.
const calibFarBytes = 8 << 20

// farBuffer maps the L3 part's buffer outside the Go heap, so that it
// changes neither the garbage collector's pacing of the workload nor,
// after subtraction, its reported peak memory.
func farBuffer() []byte {
	b, err := syscall.Mmap(-1, 0, calibFarBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, calibFarBytes)
	}
	return b
}

func xorshift(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// calibLoop runs one fixed amount of reference work.
func calibLoop() {
	var acc uint64
	s := uint64(0x2545f4914f6cdd1d)
	f := 0.0
	for r := 0; r < calibRounds; r++ {
		for i := range calibInts {
			s = xorshift(s)
			v := calibInts[i] ^ s
			lz := bits.LeadingZeros64(v | 1)
			v = bits.RotateLeft64(v, lz) >> 3
			calibInts[i] = v
			acc += uint64(lz) + v>>50
		}
		for i := range calibFloats {
			x := calibFloats[i]*0.9999999 + 1e-7
			calibFloats[i] = x
			f = f*0.5 + x*x
		}
	}
	n := uint64(len(calibFar))
	for i := 0; i < calibSteps; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		j := (s >> 20) % n
		acc += uint64(calibFar[j])
		calibFar[j] = byte(acc)
	}
	calibSink += float64(acc) + f
}

// calibrate returns the median time of calibSamples runs of calibLoop,
// in ms.
func calibrate() float64 {
	var ms [calibSamples]float64
	for i := range ms {
		t := time.Now()
		calibLoop()
		ms[i] = sinceMS(t)
	}
	return median(ms[:])
}

// scale converts a raw host time into calibrated units given the
// calibration measured around it.
func scale(raw, calibMS float64) float64 { return raw * calibRefMS / calibMS }

func sinceMS(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
