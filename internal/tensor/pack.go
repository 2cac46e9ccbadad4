package tensor

import "fmt"

// BLIS-style packed GEMM engine. Large products are computed by carving
// A and B into cache-blocked panels (copied once into contiguous, tile-
// aligned scratch buffers from the arena pool) and sweeping a register-
// blocked micro-kernel over the packed panels:
//
//	for jc over n in gemmNC columns:          B panel block
//	  for pc over k in gemmKC:                packed once per block
//	    packB: (kc × nc) → NR-column panels, p-major, zero-padded
//	    parallel over MR-row panels of A:     sharding unit = panel tile
//	      packA: (MR × kc) p-major panel (L1-resident)
//	      for each NR panel of B: micro-kernel C(MR×NR) += aP·bP
//
// A constant B (inference weights) is packed once by PackTransB into the
// very blocks packB produces, laid end to end; the sweep then reads each
// block from that buffer instead of packing it — same loop, same kernels,
// no per-call copy of the weights.
//
// Ragged tiles (fewer than NR columns left) run the same micro-kernel on
// a scratch MR×NR tile seeded from C and copied back. A short row panel —
// fewer than MR rows, as in every product of a batch-1 Push, a small
// backlog or the last panel of a batch — skips both the A pack and the
// tile: one-row kernels and their four- and two-row forms read the rows in
// place against the block's whole NR panels, so the panel costs its own
// rows instead of MR and each step of B is loaded once per group of rows.
// Only a ragged last column panel goes through the scratch tile.
//
// The micro-kernel itself is swapped at runtime (see dispatch.go): a
// portable register-blocked Go kernel, or AVX2+FMA / NEON assembly when
// the CPU has it and neither the `noasm` build tag nor VARADE_NOASM is
// set. Tile sizes are fixed per element type — 8×8 float32, 4×4 float64 —
// so the packed layout is identical whichever kernel runs.
//
// Float64 ordering contract: every kernel (generic, AVX2, NEON)
// accumulates each output element along a single chain in ascending-p
// order — exactly the summation order of the scalar loops in matmul.go —
// so the packed float64 path is bit-identical to the historical oracle.
// kc blocking preserves the chain because the kernel loads the partial C
// tile first and keeps accumulating in order; the ragged-tile scratch is
// seeded from C, not zeroed, for the same reason. The float32 kernels are
// free to reassociate and fuse (the asm uses FMA); float32 is tolerance-
// gated, not bit-gated.
//
// MatMulTransAInto (the dW = xᵀ·dy gradient path) stays on its scalar
// kernel: it runs only during training, where float64 reproducibility
// matters more than the last 2× of throughput.

// Cache-blocking parameters. kc × MR panels of A stay L1-resident
// (256·8·4 B = 8 KiB float32); the packed B block (kc × nc) targets L2.
const (
	gemmKC = 256
	gemmNC = 256

	// packedMinWork is the m·k·n multiply-add count below which packing
	// B per call cannot be amortised and the scalar kernels win. It does
	// not apply to a PackedB, which is packed already.
	packedMinWork = 64 * 64 * 64
)

// gemmTiles returns the micro-kernel tile (MR, NR) for element type T.
func gemmTiles[T Float]() (mr, nr int) {
	var z T
	if _, ok := any(z).(float32); ok {
		return 8, 8
	}
	return 4, 4
}

// usePacked reports whether the packed engine should run this product.
func usePacked(m, k, n int) bool {
	return m*k*n >= packedMinWork
}

// packAPanel copies rows [i0, i0+rows) × cols [pc, pc+kc) of a (row-major,
// stride lda) into aP in p-major tile order: aP[p*MR+ii] = a[i0+ii, pc+p].
// Rows past `rows` (edge of the matrix) are zero so the full-tile kernel
// geometry is uniform; edge tiles never read the padding lanes of C.
func packAPanel[T Float](aP, a []T, lda, i0, rows, pc, kc, mrTile int) {
	for ii := 0; ii < rows; ii++ {
		arow := a[(i0+ii)*lda+pc : (i0+ii)*lda+pc+kc]
		for p, v := range arow {
			aP[p*mrTile+ii] = v
		}
	}
	for ii := rows; ii < mrTile; ii++ {
		for p := 0; p < kc; p++ {
			aP[p*mrTile+ii] = 0
		}
	}
}

// packBPanels copies the (kc × nc) block of B at (pc, jc) into NR-column
// panels: panel q holds columns [jc+q·NR, …), p-major, zero-padded to NR.
// transB selects the source layout: false reads b as (k, n) row-major
// (MatMul), true reads b as (n, k) row-major and packs its rows as
// columns (MatMulTransB) — the packed form is identical, so one kernel
// serves both entry points.
func packBPanels[T Float](bP, b []T, ldb int, transB bool, pc, kc, jc, nc, nrTile int) {
	npan := (nc + nrTile - 1) / nrTile
	if !transB {
		for p := 0; p < kc; p++ {
			brow := b[(pc+p)*ldb+jc : (pc+p)*ldb+jc+nc]
			dst := bP[p*nrTile:]
			for q := 0; q < npan; q++ {
				j0 := q * nrTile
				nr := min(nrTile, nc-j0)
				pan := dst[q*kc*nrTile : q*kc*nrTile+nrTile]
				copy(pan, brow[j0:j0+nr])
				for jj := nr; jj < nrTile; jj++ {
					pan[jj] = 0
				}
			}
		}
		return
	}
	for q := 0; q < npan; q++ {
		j0 := q * nrTile
		nr := min(nrTile, nc-j0)
		pan := bP[q*kc*nrTile:]
		for jj := 0; jj < nr; jj++ {
			brow := b[(jc+j0+jj)*ldb+pc : (jc+j0+jj)*ldb+pc+kc]
			for p, v := range brow {
				pan[p*nrTile+jj] = v
			}
		}
		for jj := nr; jj < nrTile; jj++ {
			for p := 0; p < kc; p++ {
				pan[p*nrTile+jj] = 0
			}
		}
	}
}

// PackedB is a constant right-hand operand of a·bᵀ — inference weights —
// prepared once for repeated products by PackTransB: the engine's B
// blocks, packed ahead of time, and nothing else. Every product against it
// sweeps those blocks, whatever its size. A PackedB is immutable, so any
// number of goroutines may multiply against it at once.
type PackedB[T Float] struct {
	n, k   int
	blocks []T // packBPanels output per (jc, pc) block, in sweep order
}

// Rows returns n, the row count of the (n, k) matrix p was built from.
func (p *PackedB[T]) Rows() int { return p.n }

// Cols returns k, the shared inner extent.
func (p *PackedB[T]) Cols() int { return p.k }

// PackTransB prepares the (n, k) matrix w as the constant operand of
// MatMulPackedInto. The result does not refer to w.
func PackTransB[T Float](w *Dense[T]) *PackedB[T] {
	if len(w.shape) != 2 {
		panic("tensor: PackTransB needs a 2-D tensor")
	}
	n, k := w.shape[0], w.shape[1]
	return &PackedB[T]{n: n, k: k, blocks: packBBlocks(w.data, n, k, true)}
}

// MatMulPackedInto computes dst = a·bᵀ for a (m, k) against the (n, k)
// matrix pb was built from, overwriting dst — MatMulTransBInto without the
// per-call packing of b. Every product sweeps the packed blocks: there is
// no packing left to avoid, and one kernel family for every shape keeps
// each output element's chain the same whatever m is, so a row's bits do
// not depend on how many rows it was multiplied with. dst must not alias
// a. On one worker it allocates nothing once the scratch arenas are warm.
func MatMulPackedInto[T Float](dst, a *Dense[T], pb *PackedB[T]) {
	if len(a.shape) != 2 {
		panic("tensor: MatMulPackedInto needs a 2-D tensor")
	}
	m, k := a.shape[0], a.shape[1]
	if k != pb.k {
		panic(fmt.Sprintf("tensor: MatMulPackedInto inner dims %d vs %d", k, pb.k))
	}
	checkDst("MatMulPackedInto", dst, m, pb.n)
	gemmPackedInto(dst.data, a.data, nil, pb.blocks, m, pb.n, k, true)
}

// blockCols returns the column count of the B block at jc and its packed
// width: whole NR panels.
func blockCols(n, jc, nrTile int) (nc, ncPad int) {
	nc = min(gemmNC, n-jc)
	return nc, (nc + nrTile - 1) / nrTile * nrTile
}

// packBBlocks packs all of B into the blocks gemmPackedInto sweeps, in
// sweep order. Every jc block but the last spans gemmNC columns (a whole
// number of panels) over all of k, so block (jc, pc) starts at
// jc·k + ncPad·pc.
func packBBlocks[T Float](b []T, n, k int, transB bool) []T {
	_, nrT := gemmTiles[T]()
	ldb := n
	if transB {
		ldb = k
	}
	out := make([]T, (n+nrT-1)/nrT*nrT*k) // only the last jc block is padded
	for jc := 0; jc < n; jc += gemmNC {
		nc, ncPad := blockCols(n, jc, nrT)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			off := jc*k + ncPad*pc
			packBPanels(out[off:off+ncPad*kc], b, ldb, transB, pc, kc, jc, nc, nrT)
		}
	}
	return out
}

// gemmPackedInto computes od = a·b (transB=false, b is (k,n)) or od =
// a·bᵀ (transB=true, b is (n,k)) through the packed engine. od must be
// fully distinct from a and b and have m·n elements. B comes from one of
// two sources: packed (packBBlocks output; bd and transB are then unused)
// or, when packed is nil, bd, packed block by block into arena scratch.
func gemmPackedInto[T Float](od, ad, bd, packed []T, m, n, k int, transB bool) {
	mrT, nrT := gemmTiles[T]()
	clear(od)
	ldb := n
	if transB {
		ldb = k
	}
	rowPanels := (m + mrT - 1) / mrT
	var scratch []T // one B block, re-packed per iteration
	if packed == nil {
		ar := GetArenaOf[T]()
		defer PutArena(ar)
		// rawFloats: packB overwrites every element, padding included.
		_, ncPad := blockCols(n, 0, nrT)
		scratch = ar.rawFloats(ncPad * min(gemmKC, k))
	}
	for jc := 0; jc < n; jc += gemmNC {
		nc, ncPad := blockCols(n, jc, nrT)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			var bP []T
			if packed != nil {
				off := jc*k + ncPad*pc
				bP = packed[off : off+ncPad*kc]
			} else {
				bP = scratch[:ncPad*kc]
				packBPanels(bP, bd, ldb, transB, pc, kc, jc, nc, nrT)
			}
			if rowPanels == 1 || Workers() == 1 {
				gemmSweepRows(od, ad, bP, m, n, k, jc, nc, pc, kc, 0, rowPanels)
				continue
			}
			// Copies the closure captures by value: it escapes to the pool,
			// and captured loop variables would move to the heap on the
			// one-worker path too.
			bP, jc, nc, pc, kc := bP, jc, nc, pc, kc
			Parallel(rowPanels, func(lo, hi int) {
				gemmSweepRows(od, ad, bP, m, n, k, jc, nc, pc, kc, lo, hi)
			})
		}
	}
}

// tileOnly is a test hook: set, it sends short row panels through the
// tile kernel like any other, the reference the one-row kernels are held
// to.
var tileOnly bool

// gemvPanel runs a short row panel — rows [i0, i0+rows), fewer than MR —
// against one packed B block without packing A or padding it to MR rows:
// four rows at a time, then two, then one, each group reading its rows of
// A in place against the block's whole NR panels, so a step of B is loaded
// once per group and the block stays in L2 between groups. Only a ragged
// last panel goes through the scratch tile, one row at a time, seeded from
// C. Each lane is the tile kernel's chain for its row. It is a function of
// its own so that the sweep loop's code does not move.
func gemvPanel[T Float](od, ad, bP, tile []T, n, k, jc, nc, pc, kc, i0, rows, nrT int) {
	rows4, rows2 := gemvRowsKernelsFor[T]()
	gemv := gemvKernelFor[T]()
	full := nc / nrT
	c, a := od[i0*n+jc:], ad[i0*k+pc:]
	r := 0
	if rows4 != nil {
		for ; r+4 <= rows; r += 4 {
			rows4(c[r*n:], n, a[r*k:], k, bP, kc, full)
		}
	}
	for ; r+2 <= rows; r += 2 {
		rows2(c[r*n:], n, a[r*k:], k, bP, kc, full)
	}
	if r < rows {
		gemv(c[r*n:], a[r*k:r*k+kc], bP, kc, full)
	}
	if nr := nc - full*nrT; nr > 0 {
		last := bP[full*kc*nrT:]
		for r := 0; r < rows; r++ {
			crow := c[r*n+full*nrT : r*n+nc]
			copy(tile[:nr], crow)
			gemv(tile, a[r*k:r*k+kc], last, kc, 1)
			copy(crow, tile[:nr])
		}
	}
}

// gemmSweepRows runs row panels [lo, hi) of A against one packed B block:
// C[rows, jc:jc+nc] += A[rows, pc:pc+kc]·bP.
func gemmSweepRows[T Float](od, ad, bP []T, m, n, k, jc, nc, pc, kc, lo, hi int) {
	mrT, nrT := gemmTiles[T]()
	kern := microKernelFor[T]()
	ar := GetArenaOf[T]()
	defer PutArena(ar)
	buf := ar.rawFloats(kc*mrT + mrT*nrT)
	aP, tile := buf[:kc*mrT], buf[kc*mrT:]
	clear(tile) // once: the lanes a ragged tile never seeds stay finite
	npan := (nc + nrT - 1) / nrT
	for ir := lo; ir < hi; ir++ {
		i0 := ir * mrT
		mr := min(mrT, m-i0)
		if mr < mrT && !tileOnly {
			gemvPanel(od, ad, bP, tile, n, k, jc, nc, pc, kc, i0, mr, nrT)
			continue
		}
		packAPanel(aP, ad, k, i0, mr, pc, kc, mrT)
		for q := 0; q < npan; q++ {
			j0 := jc + q*nrT
			nr := min(nrT, n-j0)
			ct := od[i0*n+j0:]
			bq := bP[q*kc*nrT : (q+1)*kc*nrT]
			if mr == mrT && nr == nrT {
				kern(ct, n, aP, bq, kc)
				continue
			}
			// Ragged tile: the kernel's geometry is fixed, so it runs on a
			// scratch tile seeded with the partial sums C holds — zeroing
			// it would restart the ascending-p chain at every kc block.
			// The zero padding of aP and bq keeps the spare lanes inert.
			for i := 0; i < mr; i++ {
				copy(tile[i*nrT:i*nrT+nr], ct[i*n:i*n+nr])
			}
			kern(tile, nrT, aP, bq, kc)
			for i := 0; i < mr; i++ {
				copy(ct[i*n:i*n+nr], tile[i*nrT:i*nrT+nr])
			}
		}
	}
}
