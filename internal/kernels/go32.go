// Package kernels contains every micro-kernel of the reproduction:
//
//   - the host compute kernels behind SGEMMMicro, DGEMMMicro and the NT
//     packing variants, used by the real GEMM drivers in internal/core and
//     internal/baselines, and
//   - virtual-NEON ISA programs (main_isa.go, ntpack_isa.go, edge_isa.go)
//     that express the paper's register-level designs — the 7×12 / 7×6 main
//     micro-kernel (Alg 2), the packing micro-kernels that fold packing
//     loads/stores into the FMA stream (Fig 4/5, Alg 3), and the batch- vs
//     interleaved-scheduled edge kernels of Fig 6 — for the timing model and
//     for functional cross-validation.
//
// The host kernels apply §5.2's register tiling to the host they run on.
// The plan's modelled tile (7×12 FP32, 7×6 FP64, sized for 32 NEON
// registers by Eq. 1) drives the ISA programs and the timing model; the
// drivers sweep the host tile HostTileFor returns for the kernel level
// (levels.go): 8×32 FP32 and 8×16 FP64 at a SIMD level, the modelled tile
// under purego. A CPUID/XGETBV check at init picks the level (Level
// reports it, SetLevel switches it in-process):
//
//   - avx512 (avx512_amd64.s): rows in blocks of four, then the 1–3
//     leftover rows; columns in chunks of 32 FP32 / 16 FP64 (two zmm
//     registers per row, eight accumulator chains per 4-row block), then
//     one-zmm chunks under an opmask that selects all lanes or the last
//     1–15 FP32 / 1–7 FP64 columns, so no column leaves the assembly;
//   - avx2 (simd_amd64.s): the same row blocks, columns in chunks of 12
//     (one ymm and one xmm register per row), 8 and 4 for FP32 and of 6, 4
//     and 2 for FP64; the last 1–3 FP32 columns (one FP64 column) run on
//     the Go kernels;
//   - purego (go32.go, go64.go): the whole path under the purego build
//     tag, on other GOARCH values and on CPUs without AVX2 — 2×4
//     outer-product blocks of named scalar accumulators for NN tiles and
//     2×2 dot-product blocks for NT tiles, the largest blocks the 15
//     allocatable amd64 float registers hold without spilling.
//
// Each SIMD k step broadcasts one A element per row, loads one B row and
// does one multiply and one add per accumulator.
//
// Every level keeps the arithmetic of the scalar i-j-k loop: every C
// element is summed in its own precision in k order 0…kc−1, each product
// rounded before its add, and then combined as α·acc + β·c (β = 0
// overwrites C without reading it). The assembly deliberately uses a
// separate VMULPS / VADDPS (VMULPD / VADDPD) instead of FMA: a fused
// multiply-add skips the product's rounding, so it would be faster but not
// bit-identical to the scalar loop, and every kernel test here compares
// bit patterns. An FMA kernel needs the comparisons to use a stated
// rounding-error bound first.
//
// Tests assert that for identical tiles the host kernels at every level,
// the ISA programs executed by internal/vexec, and the naive reference in
// internal/mat all agree, and that the host kernels match a k-ordered
// naive loop bit for bit.
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
	if simd() {
		sgemmSIMD(mr, nr, kc, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	sgemmGo(mr, nr, kc, alpha, a, lda, b, ldb, beta, c, ldc)
}

// sgemmGo is the portable SGEMMMicro: 2×4 outer-product register blocks
// with 2×2, 2×1, 1×4, 1×2 and 1×1 blocks for the leftover rows and columns.
// Every block re-slices its operand rows once, so the k loop carries no
// bounds check beyond one per strided B row (verify with
// go build -gcflags=-d=ssa/check_bce ./internal/kernels).
func sgemmGo(mr, nr, kc int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
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

// SGEMMMicroNT computes an mr×nr FP32 tile under the NT data layout: bT is
// the transposed operand as stored (N×K row-major), so element B(k, j) of
// the logical K×N operand is bT[j*ldbT + k]. It is portable Go only: the
// NT-mode packing kernel uses it on the pure-Go path. Both operands stream
// along k, so the tile is swept in dot-product blocks: 2×2, with 2×1, 1×2
// and 1×1 for an odd row or column.
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

// SGEMMMicroNTPack is the host counterpart of the NT packing micro-kernel
// (Fig 5 / Alg 3): it scatters the kc×nr sliver of the stored-transposed
// bT into the linear buffer bc (row-major kc×nrTotal at column jOff), so
// later tiles can run the outer-product main kernel, and updates the
// mr×nr C tile — from bc with the SIMD outer-product kernel, or from bT
// with the inner-product SGEMMMicroNT on the pure-Go path. Both compute
// the same products in the same k order, so C is bit-identical.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func SGEMMMicroNTPack(mr, nr, kc int, alpha float32, a []float32, lda int, bT []float32, ldbT int, beta float32, c []float32, ldc int, bc []float32, nrTotal, jOff int) {
	scatterNT(nr, kc, bT, ldbT, bc, nrTotal, jOff)
	if simd() {
		sgemmSIMD(mr, nr, kc, alpha, a, lda, bc[jOff:], nrTotal, beta, c, ldc)
		return
	}
	SGEMMMicroNT(mr, nr, kc, alpha, a, lda, bT, ldbT, beta, c, ldc)
}

// scatterNT writes the kc×nr sliver of B held stored-transposed in bT
// (B(k, j) = bT[j*ldbT+k]) into the row-major buffer bc at column jOff
// (B(k, j) → bc[k*nrTotal+jOff+j]). Four bT rows go at a time, so each k
// writes four adjacent elements of bc instead of one strided element.
func scatterNT[T float](nr, kc int, bT []T, ldbT int, bc []T, nrTotal, jOff int) {
	j := 0
	for ; j+4 <= nr; j += 4 {
		b0 := bT[j*ldbT:][:kc]
		b1 := bT[(j+1)*ldbT:][:kc]
		b2 := bT[(j+2)*ldbT:][:kc]
		b3 := bT[(j+3)*ldbT:][:kc]
		o := jOff + j
		for k, v := range b0 {
			d := bc[o : o+4 : o+4]
			d[0], d[1], d[2], d[3] = v, b1[k], b2[k], b3[k]
			o += nrTotal
		}
	}
	for ; j < nr; j++ {
		o := jOff + j
		for _, v := range bT[j*ldbT:][:kc] {
			bc[o] = v
			o += nrTotal
		}
	}
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
