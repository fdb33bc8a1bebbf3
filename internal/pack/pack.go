// Package pack provides the data-packing substrate: the linear-buffer
// packing routines every GEMM driver uses and the runtime packing decision
// rules of §4. LibShalom's drivers (internal/core) call the predicates to
// decide whether to pack at all and, when packing, do it inside the
// micro-kernel for NT/TT (internal/kernels NTPack kernels) and as one
// row-by-row pass over each kc×nc panel for NN/TN (PackBSlivers); the
// baseline drivers (internal/baselines) use the sequential whole-panel
// routines here, which is exactly the behaviour the paper contrasts
// against.
package pack

// Strategy describes what a driver decided to do about one operand.
type Strategy int

const (
	// NoPack: the operand is consumed in place (cache-friendly access).
	NoPack Strategy = iota
	// PackOverlap: the operand is packed inside the micro-kernel,
	// overlapped with FMA computation (§5.3, LibShalom only).
	PackOverlap
	// PackSequential: the operand is packed in a separate pass before the
	// kernel runs (conventional BLAS behaviour, §2.2).
	PackSequential
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case NoPack:
		return "none"
	case PackOverlap:
		return "overlap"
	default:
		return "sequential"
	}
}

// Depth is the packing lookahead t of §5.3.2: how many nr-slivers ahead of
// the current micro-kernel iteration get packed. The paper sets t=0 for
// small GEMMs (pack only what the current iteration needs; the prefetcher
// covers the rest once B is LLC-resident, §5.3.1) and t=1 for irregular-
// shaped GEMMs whose B exceeds the LLC.
type Depth int

const (
	// DepthCurrent packs only the current sliver (t = 0).
	DepthCurrent Depth = 0
	// DepthAhead additionally packs the next iteration's sliver (t = 1).
	DepthAhead Depth = 1
)

// ShouldPackBNN is the NN-mode decision of §4.2: pack B only when it exceeds
// the L1 data cache; otherwise every operand is consumed in place. sizeB is
// the operand footprint in bytes.
func ShouldPackBNN(sizeBBytes, l1Bytes int) Strategy {
	if sizeBBytes <= l1Bytes {
		return NoPack
	}
	return PackOverlap
}

// ShouldPackBNT is the NT-mode decision of §4.3: B is always packed because
// its elements cannot be walked along N with aligned vector loads; the
// packing is overlapped with computation.
func ShouldPackBNT() Strategy { return PackOverlap }

// ShouldPackANN is §4.2's A decision: never pack A under NN — its rows are
// walked contiguously, so hardware prefetch hides the latency even when A is
// the only operand exceeding L1.
func ShouldPackANN() Strategy { return NoPack }

// DepthFor implements §5.3.2's t selection: lookahead packing only pays off
// when B cannot live in the LLC (irregular-shaped inputs).
func DepthFor(sizeBBytes, llcBytes int) Depth {
	if sizeBBytes > llcBytes {
		return DepthAhead
	}
	return DepthCurrent
}

// PackBF32 copies the kc×nc block of B starting at (k0, j0) into dst as a
// dense row-major kc×nc buffer (ldb is B's stride). This is the sequential
// whole-panel packing conventional libraries always run (Fig 1 step L2).
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackBF32(dst []float32, b []float32, ldb, k0, j0, kc, nc int) {
	for k := 0; k < kc; k++ {
		src := b[(k0+k)*ldb+j0 : (k0+k)*ldb+j0+nc]
		copy(dst[k*nc:k*nc+nc], src)
	}
}

// PackBF64 is the FP64 counterpart of PackBF32.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackBF64(dst []float64, b []float64, ldb, k0, j0, kc, nc int) {
	for k := 0; k < kc; k++ {
		src := b[(k0+k)*ldb+j0 : (k0+k)*ldb+j0+nc]
		copy(dst[k*nc:k*nc+nc], src)
	}
}

// PackBSlivers copies the kc×nc block of B at b (row stride ldb) into dst
// as consecutive nr-wide slivers: the sliver of columns j…j+w−1
// (w = min(nr, nc−j)) is a row-major kc×w block at dst[j*kc:]. It walks B
// one source row at a time, so each row is read contiguously, once, however
// far apart the rows lie. LibShalom's NN driver packs a whole (ii, kk)
// panel this way and then runs every micro-tile of a sliver from dst.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackBSlivers[T ~float32 | ~float64](dst []T, b []T, ldb, kc, nc, nr int) {
	for k := 0; k < kc; k++ {
		src := b[k*ldb : k*ldb+nc]
		for j := 0; j < nc; j += nr {
			w := min(nr, nc-j)
			o := j*kc + k*w
			copy(dst[o:o+w], src[j:j+w])
		}
	}
}

// PackBTransposedF32 packs a kc×nc block of the logical operand B = Bt^T,
// where bt is stored N×K row-major (the NT-mode input): dst[k*nc+j] =
// bt[(j0+j)*ldbt + k0+k]. This is the transpose gather the NT packing
// micro-kernel performs with vector loads plus scatter stores (Fig 5);
// baselines run it as a standalone pass.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackBTransposedF32(dst []float32, bt []float32, ldbt, k0, j0, kc, nc int) {
	for j := 0; j < nc; j++ {
		src := bt[(j0+j)*ldbt+k0:]
		for k := 0; k < kc; k++ {
			dst[k*nc+j] = src[k]
		}
	}
}

// PackBTransposedF64 is the FP64 counterpart of PackBTransposedF32.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackBTransposedF64(dst []float64, bt []float64, ldbt, k0, j0, kc, nc int) {
	for j := 0; j < nc; j++ {
		src := bt[(j0+j)*ldbt+k0:]
		for k := 0; k < kc; k++ {
			dst[k*nc+j] = src[k]
		}
	}
}

// PackAF32 packs the mc×kc block of A starting at (i0, k0) into dst as a
// dense row-major mc×kc buffer (lda is A's stride). The packed layout keeps
// each row's K elements contiguous, which is what the 7×12 main kernel's
// A-vector loads require (Fig 3).
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackAF32(dst []float32, a []float32, lda, i0, k0, mc, kc int) {
	for i := 0; i < mc; i++ {
		src := a[(i0+i)*lda+k0 : (i0+i)*lda+k0+kc]
		copy(dst[i*kc:i*kc+kc], src)
	}
}

// PackAF64 is the FP64 counterpart of PackAF32.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackAF64(dst []float64, a []float64, lda, i0, k0, mc, kc int) {
	for i := 0; i < mc; i++ {
		src := a[(i0+i)*lda+k0 : (i0+i)*lda+k0+kc]
		copy(dst[i*kc:i*kc+kc], src)
	}
}

// PackATransposedF32 packs an mc×kc block of the logical operand A = At^T
// (at stored K×M row-major, the TN-mode input) into dense row-major mc×kc:
// dst[i*kc+k] = at[(k0+k)*ldat + i0+i]. §4.3: TN packs A with the NT-mode
// strategy.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackATransposedF32(dst []float32, at []float32, ldat, i0, k0, mc, kc int) {
	for k := 0; k < kc; k++ {
		src := at[(k0+k)*ldat+i0:]
		for i := 0; i < mc; i++ {
			dst[i*kc+k] = src[i]
		}
	}
}

// PackATransposedF64 is the FP64 counterpart of PackATransposedF32.
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackATransposedF64(dst []float64, at []float64, ldat, i0, k0, mc, kc int) {
	for k := 0; k < kc; k++ {
		src := at[(k0+k)*ldat+i0:]
		for i := 0; i < mc; i++ {
			dst[i*kc+k] = src[i]
		}
	}
}

// PackAColMajorF32 packs an mb×kc block of A into the column-major (M-
// direction) sliver layout the 8×4 edge kernels of Fig 6 consume:
// dst[k*mb + i] = a[(i0+i)*lda + k0+k].
//
//shalom:hotpath noalloc,nolock,noblock,notime
func PackAColMajorF32(dst []float32, a []float32, lda, i0, k0, mb, kc int) {
	for k := 0; k < kc; k++ {
		for i := 0; i < mb; i++ {
			dst[k*mb+i] = a[(i0+i)*lda+k0+k]
		}
	}
}
