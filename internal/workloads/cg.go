package workloads

import (
	"fmt"

	"mpipredict/internal/simmpi"
)

// NAS CG (conjugate gradient) communication skeleton.
//
// CG arranges the processes in a num_proc_rows x num_proc_cols grid
// (columns >= rows, both powers of two). Every inner CG iteration does
//
//   - l2npcols partial-sum exchanges of the local result vector across the
//     processor row,
//   - one exchange with the transpose partner, and
//   - two scalar reductions (rho and beta), each as l2npcols pairwise
//     exchanges of 8 bytes,
//
// all with blocking Sendrecv pairs — CG uses only point-to-point messages
// (Table 1 reports zero collectives). Two message sizes dominate: the
// vector segment (tens of kilobytes for class A) and the 8-byte scalars.
// With 15 outer iterations of 26 inner steps the per-process receive
// counts land at roughly 1.5k/2.7k/2.7k/3.9k for 4/8/16/32 processes,
// matching the shape of Table 1 (1679/2942/2942/4204), including the fact
// that the 8- and 16-process counts are identical.
//
// The reference code additionally exchanges a residual norm at the end of
// each outer iteration; this skeleton folds that traffic into the inner
// loop (one extra inner step) so that the per-receiver stream keeps a
// single repeating pattern, which is the property the paper measures.

const (
	cgTagVector = 200 + iota
	cgTagTranspose
	cgTagRho
	cgTagBeta
)

const (
	cgNA          = 14000 // class A matrix order
	cgOuterIters  = 15    // class A niter
	cgInnerIters  = 26    // cgitmax plus the folded-in residual exchange
	cgScalarBytes = 8
)

func init() {
	register(entry{
		info: Info{
			Name:              "cg",
			PaperProcs:        []int{4, 8, 16, 32},
			DefaultIterations: cgOuterIters,
			Description:       "NAS CG skeleton: transpose exchange plus row-wise partial-sum and scalar reductions, point-to-point only",
		},
		validProcs: func(p int) error {
			if !isPowerOfTwo(p) || p < 2 {
				return fmt.Errorf("workloads: cg requires a power-of-two number of processes >= 2, got %d", p)
			}
			return nil
		},
		build: buildCG,
		receiver: func(procs int) int {
			// Rank 1 is off the transpose diagonal for every grid, so it
			// exchanges with a real partner each iteration.
			if procs > 1 {
				return 1
			}
			return 0
		},
	})
}

// cgLayout mirrors the processor grid setup of cg.f: the grid has
// num_proc_cols >= num_proc_rows, both powers of two.
type cgLayout struct {
	procs    int
	rows     int
	cols     int
	l2npcols int
}

func newCGLayout(p int) cgLayout {
	l2p := log2Ceil(p)
	cols := 1 << ((l2p + 1) / 2)
	rows := p / cols
	l2npcols := log2Ceil(cols)
	return cgLayout{procs: p, rows: rows, cols: cols, l2npcols: l2npcols}
}

// transposePartner returns the rank this process exchanges the q vector
// with, following the exch_proc computation of cg.f.
func (l cgLayout) transposePartner(me int) int {
	if l.rows == l.cols {
		procRow := me / l.cols
		procCol := me % l.cols
		return procCol*l.cols + procRow
	}
	// Twice as many columns as rows: pair even/odd ranks across the
	// half-sized square grid.
	half := me / 2
	base := 2 * ((half%l.rows)*l.rows + half/l.rows)
	return base + me%2
}

// reducePartners returns the l2npcols exchange partners used for the
// row-wise reductions, in exchange order.
func (l cgLayout) reducePartners(me int) []int {
	procRow := me / l.cols
	procCol := me % l.cols
	out := make([]int, 0, l.l2npcols)
	for i := 0; i < l.l2npcols; i++ {
		partnerCol := procCol ^ (1 << i)
		out = append(out, procRow*l.cols+partnerCol)
	}
	return out
}

// cgVectorBytes is the size of the exchanged vector segment: na/rows
// doubles.
func cgVectorBytes(l cgLayout) int64 {
	return int64(cgNA / l.rows * 8)
}

func buildCG(spec Spec) simmpi.Program {
	layout := newCGLayout(spec.Procs)
	vecBytes := cgVectorBytes(layout)
	outer := spec.Iterations

	return func(r *simmpi.Rank) {
		me := r.ID()
		transpose := layout.transposePartner(me)
		partners := layout.reducePartners(me)

		exchange := func(partner, tag int, size int64) {
			if partner == me {
				// Diagonal ranks keep their segment locally, as cg.f does.
				return
			}
			r.Sendrecv(partner, tag, size, partner, tag)
		}

		for it := 0; it < outer; it++ {
			for inner := 0; inner < cgInnerIters; inner++ {
				// Sparse matrix-vector product followed by the row-wise
				// partial sum of the result vector.
				r.Compute(400)
				for _, p := range partners {
					exchange(p, cgTagVector, vecBytes)
				}
				// Transpose exchange of the q vector.
				exchange(transpose, cgTagTranspose, vecBytes)
				// Scalar reductions for rho and beta.
				r.Compute(80)
				for _, p := range partners {
					exchange(p, cgTagRho, cgScalarBytes)
				}
				for _, p := range partners {
					exchange(p, cgTagBeta, cgScalarBytes)
				}
			}
		}
	}
}
