// Package kernels contains every micro-kernel of the reproduction, in two
// synchronized forms:
//
//   - portable Go compute kernels (this file and go64.go) used by the real
//     GEMM drivers in internal/core and internal/baselines, and
//   - virtual-NEON ISA programs (main_isa.go, ntpack_isa.go, edge_isa.go)
//     that express the paper's register-level designs — the 7×12 / 7×6 main
//     micro-kernel (Alg 2), the packing micro-kernels that fold packing
//     loads/stores into the FMA stream (Fig 4/5, Alg 3), and the batch- vs
//     interleaved-scheduled edge kernels of Fig 6 — for the timing model and
//     for functional cross-validation.
//
// The Go kernels apply §5.2's register-blocking idea to the host they run
// on. The plan's modelled tile (7×12 for FP32, 7×6 for FP64, sized for 32
// NEON registers by Eq. 1) is swept in host register blocks whose named
// scalar accumulators stay in the float register file across the k loop.
// Eq. 1's budget applied to the host — 15 allocatable float registers on
// the amd64 ABI, one lane each, plus one for the product before its add —
// admits mr·nr + mr + nr + 1 ≤ 15, which a 2×4 outer-product block meets
// and a 4×4 block (sixteen accumulators alone) does not: the compiler
// spills it to the stack, and it measured about a third slower than 2×4.
// So NN and packed-B tiles run 2×4 blocks, with 2×2, 2×1, 1×4, 1×2 and 1×1
// blocks for the leftover rows and columns, and NT tiles run 2×2
// dot-product blocks (2×1, 1×2, 1×1 at the edges). Every block re-slices
// its operand rows once, so the k loop carries no bounds check beyond one
// per strided B row (verify with
// go build -gcflags=-d=ssa/check_bce ./internal/kernels). One path serves
// the main tile and every edge tile. Each C element is still accumulated in
// its own precision in k order 0…kc−1 and then combined as α·acc + β·c, so
// the blocking changes speed, not results.
//
// Tests assert that for identical tiles the Go kernels, the ISA programs
// executed by internal/vexec, and the naive reference in internal/mat all
// agree, and that the Go kernels match a k-ordered naive loop bit for bit.
package kernels

// SGEMMMicro computes the mr×nr FP32 tile
//
//	c[i*ldc+j] = alpha * Σ_k a[i*lda+k]·b[k*ldb+j] + beta*c[i*ldc+j]
//
// for 0 ≤ i < mr, 0 ≤ j < nr, 0 ≤ k < kc. Both operands are addressed
// row-major through explicit leading dimensions, which covers every operand
// layout the drivers use: an unpacked A sliver (lda = the matrix stride), a
// packed A sliver (lda = kc), an unpacked B block (ldb = the matrix stride)
// and the packed linear buffer Bc (ldb = nr). beta == 0 overwrites C without
// reading it. Accumulation is performed in float32, k-innermost, matching
// the lane-wise semantics of the virtual-NEON kernels.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func SGEMMMicro(mr, nr, kc int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	i := 0
	for ; i+2 <= mr; i += 2 {
		ar, cr := a[i*lda:], c[i*ldc:]
		j := 0
		for ; j+4 <= nr; j += 4 {
			sgemm2x4(kc, alpha, ar, lda, b[j:], ldb, beta, cr[j:], ldc)
		}
		if j+2 <= nr {
			sgemm2x2(kc, alpha, ar, lda, b[j:], ldb, beta, cr[j:], ldc)
			j += 2
		}
		if j < nr {
			sgemm2x1(kc, alpha, ar, lda, b[j:], ldb, beta, cr[j:], ldc)
		}
	}
	if i < mr {
		ar, cr := a[i*lda:], c[i*ldc:]
		j := 0
		for ; j+4 <= nr; j += 4 {
			sgemm1x4(kc, alpha, ar, b[j:], ldb, beta, cr[j:])
		}
		if j+2 <= nr {
			sgemm1x2(kc, alpha, ar, b[j:], ldb, beta, cr[j:])
			j += 2
		}
		if j < nr {
			sgemm1x1(kc, alpha, ar, b[j:], ldb, beta, cr[j:])
		}
	}
}

// sgemm2x4 is the outer-product register block: two A rows against four
// B columns, eight accumulators, four B values and two A values live
// across the k loop — 14 of the 15 float registers the amd64 ABI leaves
// allocatable, the last holding each product before its add.
func sgemm2x4(kc int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	a0 := a[:kc]
	a1 := a[lda:][:kc]
	var c00, c01, c02, c03, c10, c11, c12, c13 float32
	bo := 0
	for k, x0 := range a0 {
		br := b[bo : bo+4 : bo+4]
		bo += ldb
		b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
		c00 += x0 * b0
		c01 += x0 * b1
		c02 += x0 * b2
		c03 += x0 * b3
		x1 := a1[k]
		c10 += x1 * b0
		c11 += x1 * b1
		c12 += x1 * b2
		c13 += x1 * b3
	}
	sstore4(c, alpha, beta, c00, c01, c02, c03)
	sstore4(c[ldc:], alpha, beta, c10, c11, c12, c13)
}

// sgemm2x2 is the outer-product block for two leftover columns.
func sgemm2x2(kc int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	a0 := a[:kc]
	a1 := a[lda:][:kc]
	var c00, c01, c10, c11 float32
	bo := 0
	for k, x0 := range a0 {
		br := b[bo : bo+2 : bo+2]
		bo += ldb
		b0, b1, x1 := br[0], br[1], a1[k]
		c00 += x0 * b0
		c01 += x0 * b1
		c10 += x1 * b0
		c11 += x1 * b1
	}
	sstore2(c, alpha, beta, c00, c01)
	sstore2(c[ldc:], alpha, beta, c10, c11)
}

// sgemm2x1 is the outer-product block for the last odd column.
func sgemm2x1(kc int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	a0 := a[:kc]
	a1 := a[lda:][:kc]
	var c00, c10 float32
	bo := 0
	for k, x0 := range a0 {
		bk := b[bo]
		bo += ldb
		c00 += x0 * bk
		c10 += a1[k] * bk
	}
	sstore1(&c[0], alpha, beta, c00)
	sstore1(&c[ldc], alpha, beta, c10)
}

// sgemm1x4 is the outer-product block for four columns of the last odd
// row.
func sgemm1x4(kc int, alpha float32, a []float32, b []float32, ldb int, beta float32, c []float32) {
	var c00, c01, c02, c03 float32
	bo := 0
	for _, x0 := range a[:kc] {
		br := b[bo : bo+4 : bo+4]
		bo += ldb
		c00 += x0 * br[0]
		c01 += x0 * br[1]
		c02 += x0 * br[2]
		c03 += x0 * br[3]
	}
	sstore4(c, alpha, beta, c00, c01, c02, c03)
}

// sgemm1x2 is the outer-product block for two columns of the last odd row.
func sgemm1x2(kc int, alpha float32, a []float32, b []float32, ldb int, beta float32, c []float32) {
	var c00, c01 float32
	bo := 0
	for _, x0 := range a[:kc] {
		br := b[bo : bo+2 : bo+2]
		bo += ldb
		c00 += x0 * br[0]
		c01 += x0 * br[1]
	}
	sstore2(c, alpha, beta, c00, c01)
}

// sgemm1x1 is the block for the corner element of an odd row and column.
func sgemm1x1(kc int, alpha float32, a []float32, b []float32, ldb int, beta float32, c []float32) {
	var c00 float32
	bo := 0
	for _, x0 := range a[:kc] {
		c00 += x0 * b[bo]
		bo += ldb
	}
	sstore1(&c[0], alpha, beta, c00)
}

// sstore4 writes one four-wide C row from its accumulators.
func sstore4(c []float32, alpha, beta, v0, v1, v2, v3 float32) {
	c = c[:4:4]
	if beta == 0 {
		c[0], c[1], c[2], c[3] = alpha*v0, alpha*v1, alpha*v2, alpha*v3
		return
	}
	c[0] = alpha*v0 + beta*c[0]
	c[1] = alpha*v1 + beta*c[1]
	c[2] = alpha*v2 + beta*c[2]
	c[3] = alpha*v3 + beta*c[3]
}

// sstore2 writes one two-wide C row from its accumulators.
func sstore2(c []float32, alpha, beta, v0, v1 float32) {
	c = c[:2:2]
	if beta == 0 {
		c[0], c[1] = alpha*v0, alpha*v1
		return
	}
	c[0] = alpha*v0 + beta*c[0]
	c[1] = alpha*v1 + beta*c[1]
}

// sstore1 writes one C element from its accumulator.
func sstore1(c *float32, alpha, beta, v float32) {
	if beta == 0 {
		*c = alpha * v
	} else {
		*c = alpha*v + beta**c
	}
}

// SGEMMMicroPackB behaves like SGEMMMicro for an mr×nr tile reading B from
// its strided source, and simultaneously packs the kc×nr B sliver into the
// linear buffer bc (row-major, leading dimension nrTotal, starting at column
// jOff). This is the Go counterpart of the NN-mode packing micro-kernel
// (Alg 1 lines 6–8): the first sliver of every mc-panel packs B while it
// updates C, and subsequent slivers reuse bc.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func SGEMMMicroPackB(mr, nr, kc int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int, bc []float32, nrTotal, jOff int) {
	for k := 0; k < kc; k++ {
		copy(bc[k*nrTotal+jOff:k*nrTotal+jOff+nr], b[k*ldb:k*ldb+nr])
	}
	SGEMMMicro(mr, nr, kc, alpha, a, lda, b, ldb, beta, c, ldc)
}

// SGEMMMicroNT computes an mr×nr FP32 tile under the NT data layout: bT is
// the transposed operand as stored (N×K row-major), so element B(k, j) of
// the logical K×N operand is bT[j*ldbT + k]. Used by the NT-mode inner-
// product packing kernel and by NT edge tiles that bypass the packed buffer.
// Both operands stream along k, so the tile is swept in dot-product
// blocks: 2×2, with 2×1, 1×2 and 1×1 for an odd row or column.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func SGEMMMicroNT(mr, nr, kc int, alpha float32, a []float32, lda int, bT []float32, ldbT int, beta float32, c []float32, ldc int) {
	i := 0
	for ; i+2 <= mr; i += 2 {
		ar, cr := a[i*lda:], c[i*ldc:]
		j := 0
		for ; j+2 <= nr; j += 2 {
			sgemmNT2x2(kc, alpha, ar, lda, bT[j*ldbT:], ldbT, beta, cr[j:], ldc)
		}
		if j < nr {
			sgemmNT2x1(kc, alpha, ar, lda, bT[j*ldbT:], beta, cr[j:], ldc)
		}
	}
	if i < mr {
		ar, cr := a[i*lda:], c[i*ldc:]
		j := 0
		for ; j+2 <= nr; j += 2 {
			sgemmNT1x2(kc, alpha, ar, bT[j*ldbT:], ldbT, beta, cr[j:])
		}
		if j < nr {
			sgemmNT1x1(kc, alpha, ar, bT[j*ldbT:], beta, cr[j:])
		}
	}
}

// sgemmNT2x2 is the inner-product register block: two A rows dotted with
// two stored-transposed B rows. Every operand is unit-stride in k, so all
// four rows are re-sliced once and the loop carries no bounds check; the
// four independent accumulator chains cover the add latency.
func sgemmNT2x2(kc int, alpha float32, a []float32, lda int, bT []float32, ldbT int, beta float32, c []float32, ldc int) {
	a0 := a[:kc]
	a1 := a[lda:][:kc]
	b0 := bT[:kc]
	b1 := bT[ldbT:][:kc]
	var c00, c01, c10, c11 float32
	for k, x0 := range a0 {
		y0, y1, x1 := b0[k], b1[k], a1[k]
		c00 += x0 * y0
		c01 += x0 * y1
		c10 += x1 * y0
		c11 += x1 * y1
	}
	sstore2(c, alpha, beta, c00, c01)
	sstore2(c[ldc:], alpha, beta, c10, c11)
}

// sgemmNT2x1 is the inner-product block for the last odd column.
func sgemmNT2x1(kc int, alpha float32, a []float32, lda int, bT []float32, beta float32, c []float32, ldc int) {
	a0 := a[:kc]
	a1 := a[lda:][:kc]
	b0 := bT[:kc]
	var c00, c10 float32
	for k, x0 := range a0 {
		y0 := b0[k]
		c00 += x0 * y0
		c10 += a1[k] * y0
	}
	sstore1(&c[0], alpha, beta, c00)
	sstore1(&c[ldc], alpha, beta, c10)
}

// sgemmNT1x2 is the inner-product block for two columns of the last odd
// row.
func sgemmNT1x2(kc int, alpha float32, a []float32, bT []float32, ldbT int, beta float32, c []float32) {
	a0 := a[:kc]
	b0 := bT[:kc]
	b1 := bT[ldbT:][:kc]
	var c00, c01 float32
	for k, x0 := range a0 {
		c00 += x0 * b0[k]
		c01 += x0 * b1[k]
	}
	sstore2(c, alpha, beta, c00, c01)
}

// sgemmNT1x1 is the single dot product at the odd row and column corner.
func sgemmNT1x1(kc int, alpha float32, a []float32, bT []float32, beta float32, c []float32) {
	a0 := a[:kc]
	b0 := bT[:kc]
	var c00 float32
	for k, x0 := range a0 {
		c00 += x0 * b0[k]
	}
	sstore1(&c[0], alpha, beta, c00)
}

// SGEMMMicroNTPack is the Go counterpart of the NT packing micro-kernel
// (Fig 5 / Alg 3): it updates an mr×nr C tile from A and the stored-
// transposed bT using the inner-product formulation, and scatters the same
// kc×nr sliver of B into the linear buffer bc (row-major kc×nrTotal at
// column jOff) so later tiles can run the 7×12 outer-product main kernel.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func SGEMMMicroNTPack(mr, nr, kc int, alpha float32, a []float32, lda int, bT []float32, ldbT int, beta float32, c []float32, ldc int, bc []float32, nrTotal, jOff int) {
	for j := 0; j < nr; j++ {
		br := bT[j*ldbT:]
		for k := 0; k < kc; k++ {
			bc[k*nrTotal+jOff+j] = br[k]
		}
	}
	SGEMMMicroNT(mr, nr, kc, alpha, a, lda, bT, ldbT, beta, c, ldc)
}

// SScaleRows scales the mr×nr tile of C by beta in place (used when a
// driver must apply beta to tiles no kernel will touch, e.g. zero-K edge).
//
//shalom:hotpath noalloc,nolock,noblock,notime
func SScaleRows(mr, nr int, beta float32, c []float32, ldc int) {
	for i := 0; i < mr; i++ {
		row := c[i*ldc : i*ldc+nr]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}
