package main

import (
	"fmt"
	"time"

	"positlab/internal/arith"
	"positlab/internal/linalg"
	"positlab/internal/matgen"
)

// Kernel probes time the BulkFormat slice kernels on operands harvested
// from the workload's own matrices, so the share of zeros — which
// decides how often the value kernels bail out of their fast path — is
// that of the real inputs: the dense rows of A (mostly zeros before
// fill-in, like the Cholesky rows the trailing update sees), A in CSR
// form, and the right-hand side b.
//
// Bytes moved are computed, not measured: 8 bytes per Num read or
// written, plus 8 per column index and 16 per CSR row (row pointer and
// y). Each probed element is one multiply and one add.

// probeFormats are the two engines the probes compare: the Posit(32,2)
// value-domain path and the Posit(16,1) lookup-table path.
var probeFormats = []arith.Format{arith.Posit32e2, arith.Posit16e1}

// probeBudget is the minimum time each probe loops for.
const probeBudget = 40 * time.Millisecond

type operands struct {
	rows   [][]arith.Num // dense rows of every matrix, concatenated
	next   []int         // index of the row each row is paired with
	alpha  []arith.Num   // 1/a_ii per row
	nalpha []arith.Num   // -a_(i+1),i / a_ii per row
	csr    []*linalg.SparseNum
	x      [][]arith.Num // b per matrix, in the format
	y      [][]arith.Num // matvec outputs
}

func harvest(f arith.Format, mats []*matgen.Matrix) *operands {
	op := &operands{}
	for _, m := range mats {
		d := m.A.ToDense().ToFormat(f, false)
		base := len(op.rows)
		for i := 0; i < d.N; i++ {
			op.rows = append(op.rows, d.Row(i))
			op.next = append(op.next, base+(i+1)%d.N)
			op.alpha = append(op.alpha, f.Div(f.One(), d.At(i, i)))
			op.nalpha = append(op.nalpha, f.Neg(f.Div(d.At((i+1)%d.N, i), d.At(i, i))))
		}
		op.csr = append(op.csr, m.A.ToFormat(f, false))
		op.x = append(op.x, linalg.VecFromFloat64(f, m.B))
		op.y = append(op.y, make([]arith.Num, m.A.N))
	}
	return op
}

// probeKernels times Dot, Axpy, MatVec, TrailingUpdate and the scalar
// Mul+Add path in each probe format, and sets the arith.* probe
// metrics. Times are calibrated with calib (ms).
func probeKernels(mats []*matgen.Matrix, tr *tracer, lm layerMetrics, calib float64) {
	root := tr.begin(0, "bench", "kernel_probes")
	defer tr.end(root)
	var bytes, ops float64
	for _, f := range probeFormats {
		short := shortName(f)
		k := arith.BulkOf(f)
		buildTables(tr, root, f)
		s := tr.begin(root, "linalg", "harvest/"+short)
		op := harvest(f, mats)
		tr.end(s)
		scratch := make([]arith.Num, 0, 2048)
		var sink arith.Num

		// loop runs one sweep repeatedly for probeBudget and returns
		// ns per element, calibrated.
		loop := func(name string, sweep func() int) float64 {
			s := tr.begin(root, "arith", name+"/"+short)
			defer tr.end(s)
			start, elems := time.Now(), 0
			for time.Since(start) < probeBudget {
				elems += sweep()
			}
			return scale(float64(time.Since(start))/float64(elems), calib)
		}
		rowSweep := func(kernel func(i int, y []arith.Num)) func() int {
			return func() int {
				n := 0
				for i, r := range op.rows {
					scratch = append(scratch[:0], op.rows[op.next[i]]...)
					kernel(i, scratch)
					n += len(r)
				}
				return n
			}
		}
		var rowElems, nnz, csrRows float64
		for _, r := range op.rows {
			rowElems += float64(len(r))
		}
		for _, a := range op.csr {
			nnz += float64(a.NNZ())
			csrRows += float64(a.N)
		}

		lm.set("arith.dot_ns_per_elem."+short, loop("dot", func() int {
			n := 0
			for i, r := range op.rows {
				sink = k.DotKernel(r, op.rows[op.next[i]])
				n += len(r)
			}
			return n
		}), "ns")
		lm.set("arith.axpy_ns_per_elem."+short, loop("axpy", rowSweep(func(i int, y []arith.Num) {
			k.AxpyKernel(op.alpha[i], op.rows[i], y)
		})), "ns")
		lm.set("arith.trailing_update_ns_per_elem."+short, loop("trailing_update", rowSweep(func(i int, y []arith.Num) {
			k.TrailingUpdateKernel(op.nalpha[i], op.rows[i], y)
		})), "ns")
		lm.set("arith.matvec_ns_per_nnz."+short, loop("matvec", func() int {
			n := 0
			for j, a := range op.csr {
				k.MatVecKernel(a.RowPtr, a.Col, a.Val, op.x[j], op.y[j])
				n += a.NNZ()
			}
			return n
		}), "ns")
		// The scalar path: one Mul and one Add per element, through the
		// Format interface rather than a kernel.
		lm.set("arith.ns_per_op."+short, loop("scalar", func() int {
			n := 0
			for j, a := range op.csr {
				for i := 0; i < a.N; i++ {
					acc := f.Zero()
					for idx := a.RowPtr[i]; idx < a.RowPtr[i+1]; idx++ {
						acc = f.Add(acc, f.Mul(a.Val[idx], op.x[j][a.Col[idx]]))
					}
					sink = acc
				}
				n += 2 * a.NNZ()
			}
			return n
		}), "ns")
		probeSink = sink
		// dot reads 2 Nums per element, axpy and the trailing update
		// read 2 and write 1; matvec reads val, col and x per nonzero.
		bytes += rowElems*(16+24+24) + nnz*24 + csrRows*16
		ops += 2 * (3*rowElems + nnz)
	}
	lm.set("arith.table_build_ms", scale(tableBuildMS["posit16e1"], calib), "ms")
	lm.set("arith.kernel_bytes", bytes, "B")
	lm.set("arith.kernel_ops_per_byte", ops/bytes, "1")
}

// probeSink keeps the probed results alive.
var probeSink arith.Num

// tableBuildMS holds, per format, the time of the first TablesOf call,
// the one that builds the process-wide lookup tables.
var tableBuildMS = map[string]float64{}

// buildTables builds the lookup tables of the given formats, timing
// each format's first build.
func buildTables(tr *tracer, parent int, fs ...arith.Format) {
	for _, f := range fs {
		name := shortName(f)
		if _, done := tableBuildMS[name]; done {
			continue
		}
		s := tr.begin(parent, "arith", "table_build/"+name)
		t := time.Now()
		if _, ok := arith.TablesOf(f); !ok {
			tr.end(s)
			continue
		}
		tableBuildMS[name] = sinceMS(t)
		tr.end(s)
	}
}

// shortName is the metric suffix of a format: posit32e2, float16, ...
func shortName(f arith.Format) string {
	if c, ok := arith.PositConfig(f); ok {
		return fmt.Sprintf("posit%de%d", c.N(), c.ES())
	}
	switch f.Name() {
	case "Float64":
		return "float64"
	case "Float32":
		return "float32"
	case "Float16":
		return "float16"
	}
	return f.Name()
}
