package kernels

// FP64 counterparts of the host micro-kernels, block for block: the
// modelled FP64 tile is 7×6 (internal/analytic, j=2 lanes per 128-bit
// register), swept in the same host register blocks as FP32.

// DGEMMMicro computes the mr×nr FP64 tile
// c = alpha*(a·b) + beta*c with row-major operands and explicit leading
// dimensions; see SGEMMMicro for the layout conventions.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func DGEMMMicro(mr, nr, kc int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if simd() {
		dgemmSIMD(mr, nr, kc, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}
	dgemmGo(mr, nr, kc, alpha, a, lda, b, ldb, beta, c, ldc)
}

// dgemmGo is the portable DGEMMMicro, in sgemmGo's register blocks.
func dgemmGo(mr, nr, kc int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	i := 0
	for ; i+2 <= mr; i += 2 {
		ar, cr := a[i*lda:], c[i*ldc:]
		j := 0
		for ; j+4 <= nr; j += 4 {
			dgemm2x4(kc, alpha, ar, lda, b[j:], ldb, beta, cr[j:], ldc)
		}
		if j+2 <= nr {
			dgemm2x2(kc, alpha, ar, lda, b[j:], ldb, beta, cr[j:], ldc)
			j += 2
		}
		if j < nr {
			dgemm2x1(kc, alpha, ar, lda, b[j:], ldb, beta, cr[j:], ldc)
		}
	}
	if i < mr {
		ar, cr := a[i*lda:], c[i*ldc:]
		j := 0
		for ; j+4 <= nr; j += 4 {
			dgemm1x4(kc, alpha, ar, b[j:], ldb, beta, cr[j:])
		}
		if j+2 <= nr {
			dgemm1x2(kc, alpha, ar, b[j:], ldb, beta, cr[j:])
			j += 2
		}
		if j < nr {
			dgemm1x1(kc, alpha, ar, b[j:], ldb, beta, cr[j:])
		}
	}
}

// dgemm2x4 is the outer-product register block: two A rows against four
// B columns, eight accumulators, four B values and two A values live
// across the k loop — 14 of the 15 float registers the amd64 ABI leaves
// allocatable, the last holding each product before its add.
func dgemm2x4(kc int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	a0 := a[:kc]
	a1 := a[lda:][:kc]
	var c00, c01, c02, c03, c10, c11, c12, c13 float64
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
	dstore4(c, alpha, beta, c00, c01, c02, c03)
	dstore4(c[ldc:], alpha, beta, c10, c11, c12, c13)
}

// dgemm2x2 is the outer-product block for two leftover columns.
func dgemm2x2(kc int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	a0 := a[:kc]
	a1 := a[lda:][:kc]
	var c00, c01, c10, c11 float64
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
	dstore2(c, alpha, beta, c00, c01)
	dstore2(c[ldc:], alpha, beta, c10, c11)
}

// dgemm2x1 is the outer-product block for the last odd column.
func dgemm2x1(kc int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	a0 := a[:kc]
	a1 := a[lda:][:kc]
	var c00, c10 float64
	bo := 0
	for k, x0 := range a0 {
		bk := b[bo]
		bo += ldb
		c00 += x0 * bk
		c10 += a1[k] * bk
	}
	dstore1(&c[0], alpha, beta, c00)
	dstore1(&c[ldc], alpha, beta, c10)
}

// dgemm1x4 is the outer-product block for four columns of the last odd
// row.
func dgemm1x4(kc int, alpha float64, a []float64, b []float64, ldb int, beta float64, c []float64) {
	var c00, c01, c02, c03 float64
	bo := 0
	for _, x0 := range a[:kc] {
		br := b[bo : bo+4 : bo+4]
		bo += ldb
		c00 += x0 * br[0]
		c01 += x0 * br[1]
		c02 += x0 * br[2]
		c03 += x0 * br[3]
	}
	dstore4(c, alpha, beta, c00, c01, c02, c03)
}

// dgemm1x2 is the outer-product block for two columns of the last odd row.
func dgemm1x2(kc int, alpha float64, a []float64, b []float64, ldb int, beta float64, c []float64) {
	var c00, c01 float64
	bo := 0
	for _, x0 := range a[:kc] {
		br := b[bo : bo+2 : bo+2]
		bo += ldb
		c00 += x0 * br[0]
		c01 += x0 * br[1]
	}
	dstore2(c, alpha, beta, c00, c01)
}

// dgemm1x1 is the block for the corner element of an odd row and column.
func dgemm1x1(kc int, alpha float64, a []float64, b []float64, ldb int, beta float64, c []float64) {
	var c00 float64
	bo := 0
	for _, x0 := range a[:kc] {
		c00 += x0 * b[bo]
		bo += ldb
	}
	dstore1(&c[0], alpha, beta, c00)
}

// dstore4 writes one four-wide C row from its accumulators.
func dstore4(c []float64, alpha, beta, v0, v1, v2, v3 float64) {
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

// dstore2 writes one two-wide C row from its accumulators.
func dstore2(c []float64, alpha, beta, v0, v1 float64) {
	c = c[:2:2]
	if beta == 0 {
		c[0], c[1] = alpha*v0, alpha*v1
		return
	}
	c[0] = alpha*v0 + beta*c[0]
	c[1] = alpha*v1 + beta*c[1]
}

// dstore1 writes one C element from its accumulator.
func dstore1(c *float64, alpha, beta, v float64) {
	if beta == 0 {
		*c = alpha * v
	} else {
		*c = alpha*v + beta**c
	}
}

// DGEMMMicroNT computes an mr×nr FP64 tile with B supplied as stored-
// transposed (N×K row-major); see SGEMMMicroNT.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func DGEMMMicroNT(mr, nr, kc int, alpha float64, a []float64, lda int, bT []float64, ldbT int, beta float64, c []float64, ldc int) {
	i := 0
	for ; i+2 <= mr; i += 2 {
		ar, cr := a[i*lda:], c[i*ldc:]
		j := 0
		for ; j+2 <= nr; j += 2 {
			dgemmNT2x2(kc, alpha, ar, lda, bT[j*ldbT:], ldbT, beta, cr[j:], ldc)
		}
		if j < nr {
			dgemmNT2x1(kc, alpha, ar, lda, bT[j*ldbT:], beta, cr[j:], ldc)
		}
	}
	if i < mr {
		ar, cr := a[i*lda:], c[i*ldc:]
		j := 0
		for ; j+2 <= nr; j += 2 {
			dgemmNT1x2(kc, alpha, ar, bT[j*ldbT:], ldbT, beta, cr[j:])
		}
		if j < nr {
			dgemmNT1x1(kc, alpha, ar, bT[j*ldbT:], beta, cr[j:])
		}
	}
}

// dgemmNT2x2 is the inner-product register block: two A rows dotted with
// two stored-transposed B rows. Every operand is unit-stride in k, so all
// four rows are re-sliced once and the loop carries no bounds check; the
// four independent accumulator chains cover the add latency.
func dgemmNT2x2(kc int, alpha float64, a []float64, lda int, bT []float64, ldbT int, beta float64, c []float64, ldc int) {
	a0 := a[:kc]
	a1 := a[lda:][:kc]
	b0 := bT[:kc]
	b1 := bT[ldbT:][:kc]
	var c00, c01, c10, c11 float64
	for k, x0 := range a0 {
		y0, y1, x1 := b0[k], b1[k], a1[k]
		c00 += x0 * y0
		c01 += x0 * y1
		c10 += x1 * y0
		c11 += x1 * y1
	}
	dstore2(c, alpha, beta, c00, c01)
	dstore2(c[ldc:], alpha, beta, c10, c11)
}

// dgemmNT2x1 is the inner-product block for the last odd column.
func dgemmNT2x1(kc int, alpha float64, a []float64, lda int, bT []float64, beta float64, c []float64, ldc int) {
	a0 := a[:kc]
	a1 := a[lda:][:kc]
	b0 := bT[:kc]
	var c00, c10 float64
	for k, x0 := range a0 {
		y0 := b0[k]
		c00 += x0 * y0
		c10 += a1[k] * y0
	}
	dstore1(&c[0], alpha, beta, c00)
	dstore1(&c[ldc], alpha, beta, c10)
}

// dgemmNT1x2 is the inner-product block for two columns of the last odd
// row.
func dgemmNT1x2(kc int, alpha float64, a []float64, bT []float64, ldbT int, beta float64, c []float64) {
	a0 := a[:kc]
	b0 := bT[:kc]
	b1 := bT[ldbT:][:kc]
	var c00, c01 float64
	for k, x0 := range a0 {
		c00 += x0 * b0[k]
		c01 += x0 * b1[k]
	}
	dstore2(c, alpha, beta, c00, c01)
}

// dgemmNT1x1 is the single dot product at the odd row and column corner.
func dgemmNT1x1(kc int, alpha float64, a []float64, bT []float64, beta float64, c []float64) {
	a0 := a[:kc]
	b0 := bT[:kc]
	var c00 float64
	for k, x0 := range a0 {
		c00 += x0 * b0[k]
	}
	dstore1(&c[0], alpha, beta, c00)
}

// DGEMMMicroNTPack is the FP64 NT packing micro-kernel (Fig 5 / Alg 3):
// scatter of the sliver into bc plus the C update; see SGEMMMicroNTPack.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func DGEMMMicroNTPack(mr, nr, kc int, alpha float64, a []float64, lda int, bT []float64, ldbT int, beta float64, c []float64, ldc int, bc []float64, nrTotal, jOff int) {
	scatterNT(nr, kc, bT, ldbT, bc, nrTotal, jOff)
	if simd() {
		dgemmSIMD(mr, nr, kc, alpha, a, lda, bc[jOff:], nrTotal, beta, c, ldc)
		return
	}
	DGEMMMicroNT(mr, nr, kc, alpha, a, lda, bT, ldbT, beta, c, ldc)
}

// DScaleRows scales the mr×nr tile of C by beta in place.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func DScaleRows(mr, nr int, beta float64, c []float64, ldc int) {
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
