package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"libshalom/internal/analytic"
	"libshalom/internal/faults"
	"libshalom/internal/guard"
	"libshalom/internal/heal"
	"libshalom/internal/kernels"
	"libshalom/internal/pack"
	"libshalom/internal/parallel"
	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
)

// Config carries the per-call execution parameters of the driver.
type Config struct {
	// Plat selects the platform model whose cache capacities drive the
	// packing decision (§4.2) and blocking parameters. Defaults to
	// Kunpeng 920 when nil.
	Plat *platform.Platform
	// Threads is the parallel width; values < 2 run single-threaded.
	// The paper parallelizes only irregular-shaped GEMM (§6); callers are
	// expected to pass 1 for small inputs, and the public API does so.
	Threads int
	// Pool optionally supplies a shared worker pool. When nil and
	// Threads > 1 a transient pool is created for the call.
	Pool *parallel.Pool
	// NumericGuard enables the runtime numeric guard: operand and result
	// blocks are scanned for NaN/Inf, and a fast path that panics or
	// manufactures non-finite values from finite inputs is demoted to the
	// portable reference path (the call still succeeds, degraded).
	NumericGuard bool
	// CheckAlias makes batch calls validate up front that no two entries
	// write overlapping C storage, returning ErrAliasedBatch instead of
	// racing.
	CheckAlias bool
	// Deadline, when positive, bounds the call: parallel runs arm the
	// stuck-worker watchdog with it as the per-block budget (a block
	// exceeding it converts the call into a *guard.StuckWorkerError instead
	// of a hang), and batch calls additionally wrap their context with it so
	// unstarted entries are abandoned once it expires.
	Deadline time.Duration
	// RetryTransient retries a transiently failed block once on the
	// reference path instead of surfacing the failure: a fast path that
	// panics trips the breaker and the block is recomputed transparently —
	// the call succeeds, degraded. NumericGuard implies the same recovery
	// plus the NaN/Inf scan.
	RetryTransient bool
	// Tel is the optional telemetry recorder the call reports into: per-
	// shape metrics, phase trace spans, pool gauges. nil disables the layer;
	// the disabled hot path performs zero atomic writes and zero
	// allocations (probe-verified, see internal/telemetry).
	Tel *telemetry.Recorder
}

// poolObserver adapts cfg.Tel into the pool's Observer hook without handing
// the pool a typed-nil interface when telemetry is off.
func (c Config) poolObserver() parallel.Observer {
	if c.Tel == nil {
		return nil
	}
	return c.Tel
}

func (c Config) platform() *platform.Platform {
	if c.Plat != nil {
		return c.Plat
	}
	return defaultPlatform
}

// defaultPlatform is the model a nil Config.Plat selects, built once.
var defaultPlatform = platform.KP920()

// verifiedPlatform is platform() after the registration-time leg of the
// fallback chain: its kernel contracts are verified (memoised per platform),
// tripping the breaker of any kernel family that fails. The driver calls it
// once per call and once per batch; PlanFor, being introspection, does not.
func (c Config) verifiedPlatform() *platform.Platform {
	plat := c.platform()
	guard.VerifyContracts(plat)
	return plat
}

// Float constrains the generic driver to the two GEMM precisions.
type Float interface {
	~float32 | ~float64
}

// kernelSet wires the generic driver to the precision-specific micro-kernels.
type kernelSet[T Float] struct {
	elemBytes int
	micro     func(mr, nr, kc int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int)
	// packB copies a kc×nc NN B panel into nr-wide slivers.
	packB  func(dst []T, b []T, ldb, kc, nc, nr int)
	ntPack func(mr, nr, kc int, alpha T, a []T, lda int, bT []T, ldbT int, beta T, c []T, ldc int, bc []T, nrTotal, jOff int)
	scale  func(mr, nr int, beta T, c []T, ldc int)
	packAT func(dst []T, at []T, ldat, i0, k0, mc, kc int)
	// ref is the portable reference GEMM the guard demotes to when the
	// fast-path kernel family misbehaves (internal/guard fallback chain).
	ref func(transA, transB bool, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int)
	// scratch lends gemmST its pack buffers.
	scratch *packScratch[T]
}

func f32Kernels() kernelSet[float32] {
	return kernelSet[float32]{
		elemBytes: 4,
		micro:     kernels.SGEMMMicro,
		packB:     pack.PackBSlivers[float32],
		ntPack:    kernels.SGEMMMicroNTPack,
		scale:     kernels.SScaleRows,
		packAT:    pack.PackATransposedF32,
		ref:       kernels.SGEMMRef,
		scratch:   &f32Scratch,
	}
}

func f64Kernels() kernelSet[float64] {
	return kernelSet[float64]{
		elemBytes: 8,
		micro:     kernels.DGEMMMicro,
		packB:     pack.PackBSlivers[float64],
		ntPack:    kernels.DGEMMMicroNTPack,
		scale:     kernels.DScaleRows,
		packAT:    pack.PackATransposedF64,
		ref:       kernels.DGEMMRef,
		scratch:   &f64Scratch,
	}
}

// SGEMM computes C = α·op(A)·op(B) + β·C in single precision with
// LibShalom's driver. op(A) is m×k and op(B) is k×n; lda/ldb/ldc are the
// row strides of the operands as stored.
func SGEMM(cfg Config, mode Mode, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) error {
	return gemm[float32](cfg, f32Kernels(), mode, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DGEMM is the double-precision counterpart of SGEMM.
func DGEMM(cfg Config, mode Mode, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) error {
	return gemm[float64](cfg, f64Kernels(), mode, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

func checkArgs[T Float](mode Mode, m, n, k int, a []T, lda int, b []T, ldb int, c []T, ldc int) error {
	if m < 0 || n < 0 || k < 0 {
		return fmt.Errorf("core: negative dimension m=%d n=%d k=%d", m, n, k)
	}
	arows, acols := m, k
	if mode.TransA() {
		arows, acols = k, m
	}
	brows, bcols := k, n
	if mode.TransB() {
		brows, bcols = n, k
	}
	if lda < max(1, acols) || ldb < max(1, bcols) || ldc < max(1, n) {
		return fmt.Errorf("core: leading dimension too small (lda=%d ldb=%d ldc=%d)", lda, ldb, ldc)
	}
	if need := sliceNeed(arows, acols, lda); len(a) < need {
		return fmt.Errorf("core: A has %d elements, needs %d", len(a), need)
	}
	if need := sliceNeed(brows, bcols, ldb); len(b) < need {
		return fmt.Errorf("core: B has %d elements, needs %d", len(b), need)
	}
	if need := sliceNeed(m, n, ldc); len(c) < need {
		return fmt.Errorf("core: C has %d elements, needs %d", len(c), need)
	}
	return nil
}

func sliceNeed(rows, cols, ld int) int {
	if rows == 0 || cols == 0 {
		return 0
	}
	return (rows-1)*ld + cols
}

func gemm[T Float](cfg Config, ks kernelSet[T], mode Mode, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) error {
	if err := checkArgs(mode, m, n, k, a, lda, b, ldb, c, ldc); err != nil {
		return err
	}
	p := derivePlan(cfg.verifiedPlatform(), mode, ks.elemBytes)
	return dispatch(cfg, ks, &p, -1, cfg.Tel.CallTid(), m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// dispatch runs one problem — a single call (entry < 0) or the batch entry
// with index entry — through the fallback chain in the order both share:
// the slow-class chaos hook, the empty and scale-only short-circuits, the
// breaker route, then the reference, canary or fast route, and last the
// (kernel, outcome) telemetry. tid is the trace lane the problem runs on.
// Only single calls record the call and plan spans, and only they split
// into threaded blocks; batch entries pass Threads 1.
func dispatch[T Float](cfg Config, ks kernelSet[T], p *execPlan, entry int, tid int32, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) error {
	tel := cfg.Tel
	mode := uint8(p.mode)
	prec := telemetry.PrecFor(ks.elemBytes)
	class := uint8(telemetry.ClassifyShape(m, n, k))
	start := tel.Now()
	if d := faults.SlowClassFire(class); d > 0 {
		// Chaos: a kernel that regressed on this workload regime. Timing
		// only — the delay lands inside the measured duration so the
		// attribution engine sees the class underperform its model.
		tel.FaultInjected(faults.SlowShapeClass)
		time.Sleep(d)
	}
	finish := func(kernel, outcome uint8, err error) error {
		tel.CallDone(prec, mode, class, kernel, outcome, start, 2*float64(m)*float64(n)*float64(k))
		if entry < 0 {
			tel.Span(telemetry.PhaseCall, tid, start, mode, prec, m, n, k)
		}
		return err
	}
	if m == 0 || n == 0 {
		return finish(telemetry.KernelFast, telemetry.OutcomeOK, nil)
	}
	if alpha == 0 || k == 0 {
		scaleAll(ks, m, n, beta, c, ldc)
		return finish(telemetry.KernelFast, telemetry.OutcomeOK, nil)
	}
	// The plan phase is the breaker routing decision, taken per problem so
	// a breaker that heals or trips mid-batch takes effect from the next
	// entry on.
	planStart := tel.Now()
	route, beganProbe := heal.RouteFor(p.plat.Name, p.path)
	if beganProbe {
		tel.HealEvent(telemetry.HealBreakerProbe)
		tel.BreakerTransition(telemetry.BreakerOpen, telemetry.BreakerProbing)
	}
	if entry < 0 {
		tel.Span(telemetry.PhasePlan, tid, planStart, mode, prec, m, n, k)
	}
	if route == heal.RouteRef {
		ks.ref(p.mode.TransA(), p.mode.TransB(), m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		return finish(telemetry.KernelRef, telemetry.OutcomeOK, nil)
	}

	// A probing family breaker canaries the incumbent tile; otherwise a
	// tuned dispatch override installed for the shape class may substitute
	// its tile, canary-shadowed while its own breaker probes.
	kern, canary := telemetry.KernelFast, route == heal.RouteCanary
	if !canary {
		if tuned, probing, ok := resolveOverride(p, class); ok {
			p, kern, canary = &tuned, telemetry.KernelTuned, probing
		}
	}
	if canary {
		// Canaries run single-threaded — the shadow doubles the work anyway,
		// and the probing window is short.
		if runCanary(cfg, ks, p, kern == telemetry.KernelTuned, tid, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc) {
			return finish(telemetry.KernelRef, telemetry.OutcomeDegraded, nil)
		}
		return finish(kern, telemetry.OutcomeOK, nil)
	}

	report := func(degraded bool, err error) error {
		switch {
		case err != nil:
			var stuck *guard.StuckWorkerError
			if errors.As(err, &stuck) {
				tel.HealEvent(telemetry.HealStuckWorker)
				return finish(kern, telemetry.OutcomeStuck, err)
			}
			if _, ok := err.(*guard.KernelPanicError); ok {
				return finish(kern, telemetry.OutcomePanic, err)
			}
			// Pool misuse (ErrClosed): the work never ran.
			return finish(kern, telemetry.OutcomeCancelled, err)
		case degraded:
			return finish(telemetry.KernelRef, telemetry.OutcomeDegraded, nil)
		default:
			return finish(kern, telemetry.OutcomeOK, nil)
		}
	}
	if cfg.Threads > 1 {
		if _, blocks := p.split(m, n, cfg.Threads); len(blocks) > 1 {
			return report(runBlocks(cfg, ks, *p, blocks, tid, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc))
		}
	}
	return report(runBlock(cfg, ks, p, parallel.Block{M: m, N: n}, entry, tid, k, alpha, a, lda, b, ldb, beta, c, ldc))
}

// resolveOverride returns the tuned dispatch override installed for the
// shape class, if any, applied to the incumbent plan p: the candidate's
// tile, KC and private breaker path, with probing true while that breaker
// probes. ok is false without an override — or with its breaker open,
// possible only in the instant before Trip evicts it — and p then serves
// unchanged on the fast path, never the reference.
func resolveOverride(p *execPlan, class uint8) (tuned execPlan, probing, ok bool) {
	ov, ok := guard.OverrideFor(p.elemBytes, class)
	if !ok {
		return tuned, false, false
	}
	route, _ := heal.RouteFor(p.plat.Name, ov.Path)
	if route == heal.RouteRef {
		return tuned, false, false
	}
	tuned = *p
	tuned.tile = analytic.Tile{MR: ov.MR, NR: ov.NR}
	tuned.host.MR, tuned.host.NR = ov.MR, ov.NR
	if ov.KC > 0 {
		tuned.blk.KC = ov.KC
	}
	tuned.path = ov.Path
	return tuned, route == heal.RouteCanary, true
}

// runBlocks fans the C blocks of one threaded call out over the pool; each
// block runs through the hardened block runner with its operand origins
// shifted per block and mode. Every task owns a disjoint C sub-block, so
// the per-task error and degradation slots need no synchronization beyond
// the pool's join. p is a copy: the escaping tasks capture it, and a
// captured pointer would move every caller's plan to the heap.
func runBlocks[T Float](cfg Config, ks kernelSet[T], p execPlan, blocks []parallel.Block, callTid int32, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) (bool, error) {
	pool := cfg.Pool
	if pool == nil {
		pool = parallel.NewPoolObserved(cfg.Threads, cfg.poolObserver())
		// A watchdog early return leaves the stuck task and the feeder
		// running; the pool closes once they stop.
		defer pool.CloseWhenIdle()
	}
	errs := make([]error, len(blocks))
	degr := make([]bool, len(blocks))
	tasks := make([]func(int), len(blocks))
	for bi, bl := range blocks {
		tasks[bi] = func(worker int) {
			aOff, ldaEff := threadAOffset(p.mode, bl.I0, lda)
			bOff := threadBOffset(p.mode, bl.J0, ldb)
			degr[bi], errs[bi] = runBlock(cfg, ks, &p, bl, -1, telemetry.WorkerTid(worker, callTid), k,
				alpha, a[aOff:], ldaEff, b[bOff:], ldb, beta, c[bl.I0*ldc+bl.J0:], ldc)
		}
	}
	tel := cfg.Tel
	barrierStart := tel.Now()
	poolErr := pool.RunWorkerCfg(parallel.RunConfig{TaskBudget: cfg.Deadline}, tasks)
	tel.Span(telemetry.PhaseBarrier, callTid, barrierStart, uint8(p.mode), telemetry.PrecFor(ks.elemBytes), m, n, k)
	if poolErr != nil {
		// On a watchdog early return stragglers may still be writing their
		// errs/degr slots; the pool error must win before those slices are
		// read.
		return false, poolErr
	}
	degraded := false
	for bi, err := range errs {
		if err != nil {
			return false, err
		}
		degraded = degraded || degr[bi]
	}
	return degraded, nil
}

// threadAOffset returns the element offset into A for a thread whose C block
// starts at row i0, plus the effective leading dimension (unchanged).
func threadAOffset(mode Mode, i0, lda int) (int, int) {
	if mode.TransA() {
		return i0, lda // A stored K×M: advancing M means advancing columns
	}
	return i0 * lda, lda
}

// threadBOffset returns the element offset into B for a thread whose C block
// starts at column j0.
func threadBOffset(mode Mode, j0, ldb int) int {
	if mode.TransB() {
		return j0 * ldb // B stored N×K: advancing N means advancing rows
	}
	return j0
}

func scaleAll[T Float](ks kernelSet[T], m, n int, beta T, c []T, ldc int) {
	if beta == 1 {
		return
	}
	ks.scale(m, n, beta, c, ldc)
}

// gemmST is the single-threaded Algorithm 1 loop nest for one C block
// under plan p, swept in the plan's host tile. tel and tid carry the
// telemetry recorder (nil when disabled) and the trace lane of the
// executing worker; spans are recorded per kc-block — pack spans around
// the explicit A gather and NN B panel pass, kernel-batch spans around the
// micro-tile sweep (which includes the §5.3 fused NT B packing) — coarse
// enough to stay off the micro-tile critical path.
func gemmST[T Float](tel *telemetry.Recorder, tid int32, ks kernelSet[T], p *execPlan, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	mode := p.mode
	mr, nr := p.host.MR, p.host.NR
	mc, kc, nc := p.blk.MC, p.blk.KC, p.blk.NC
	prec := telemetry.PrecFor(ks.elemBytes)
	bStrategy := p.packB(n, k)
	packPanel := !mode.TransB() && bStrategy == pack.PackOverlap

	nB, nA := p.packBufLens(m, n, k)
	buf := ks.scratch.get(nB + nA)
	defer ks.scratch.put(buf)
	bc, aBuf := (*buf)[:nB], (*buf)[nB:]

	for jj := 0; jj < n; jj += nc {
		ncb := min(nc, n-jj)
		for ii := 0; ii < m; ii += mc {
			mcb := min(mc, m-ii)
			// Loop interchange (§3.3): kk runs inside ii so each A block's
			// rows are walked contiguously across the whole K extent.
			for kk := 0; kk < k; kk += kc {
				kcb := min(kc, k-kk)
				betaEff := alphaBeta(kk == 0, beta)
				// Effective A block accessor for this (ii, kk).
				var aBlk []T
				var ldaEff int
				if mode.TransA() {
					// §4.3: TN/TT gather the transposed A block into a
					// row-major buffer (the NT-style packing of A).
					packStart := tel.Now()
					ks.packAT(aBuf, a, lda, ii, kk, mcb, kcb)
					tel.Span(telemetry.PhasePack, tid, packStart, uint8(mode), prec, mcb, 0, kcb)
					aBlk, ldaEff = aBuf, kcb
				} else {
					aBlk, ldaEff = a[ii*lda+kk:], lda
				}
				if packPanel {
					// NN/TN with large B: copy the kc×ncb panel into
					// nr-wide slivers one source row at a time, so each
					// row of B is read contiguously and once (Alg 1 line
					// 7's packing, done for the whole panel), then run
					// every tile of a sliver from the L1/L2-resident
					// copy (lines 9–11). The §5.3.2 lookahead depth t
					// changes when elements are packed, not what is
					// computed; the timing model prices the t=1
					// variant.
					packStart := tel.Now()
					ks.packB(bc, b[kk*ldb+jj:], ldb, kcb, ncb, nr)
					tel.Span(telemetry.PhasePack, tid, packStart, uint8(mode), prec, 0, ncb, kcb)
				}
				kernStart := tel.Now()
				for j := 0; j < ncb; j += nr {
					nrb := min(nr, ncb-j)
					jAbs := jj + j
					cTile := c[ii*ldc+jAbs:]
					switch {
					case mode.TransB():
						// NT/TT: first micro-tile runs the inner-product
						// packing kernel (Fig 5/Alg 3), the rest consume Bc
						// with the outer-product main kernel.
						bT := b[jAbs*ldb+kk:]
						mrb := min(mr, mcb)
						ks.ntPack(mrb, nrb, kcb, alpha, aBlk, ldaEff, bT, ldb, betaEff, cTile, ldc, bc, nrb, 0)
						for i := mrb; i < mcb; i += mr {
							mrb2 := min(mr, mcb-i)
							ks.micro(mrb2, nrb, kcb, alpha, aBlk[i*ldaEff:], ldaEff, bc, nrb, betaEff, cTile[i*ldc:], ldc)
						}
					case packPanel:
						// The sliver of columns j… sits at bc[j*kcb:].
						sliver := bc[j*kcb:]
						for i := 0; i < mcb; i += mr {
							mrb2 := min(mr, mcb-i)
							ks.micro(mrb2, nrb, kcb, alpha, aBlk[i*ldaEff:], ldaEff, sliver, nrb, betaEff, cTile[i*ldc:], ldc)
						}
					default:
						// Small B (fits L1): no packing at all (Alg 1
						// lines 12–15) — every tile streams B in place.
						bBlk := b[kk*ldb+jAbs:]
						for i := 0; i < mcb; i += mr {
							mrb2 := min(mr, mcb-i)
							ks.micro(mrb2, nrb, kcb, alpha, aBlk[i*ldaEff:], ldaEff, bBlk, ldb, betaEff, cTile[i*ldc:], ldc)
						}
					}
				}
				tel.Span(telemetry.PhaseKernelBatch, tid, kernStart, uint8(mode), prec, mcb, ncb, kcb)
			}
		}
	}
}

// packBufLens is the element count of gemmST's B buffer — one kc×nr
// sliver (NT/TT) or one kc×nc panel (NN/TN with a packed B) — and of its
// mc×kc A block (TN/TT), clamped to the problem: a 4³ call must not ask
// for KP920's 431-deep panels or a 32-wide sliver.
func (p *execPlan) packBufLens(m, n, k int) (nB, nA int) {
	kc := min(p.blk.KC, k)
	switch {
	case p.mode.TransB():
		nB = kc * min(p.host.NR, n)
	case p.packB(n, k) == pack.PackOverlap:
		nB = kc * min(p.blk.NC, n)
	}
	if p.mode.TransA() {
		nA = min(p.blk.MC, m) * kc
	}
	return nB, nA
}

// packScratch lends gemmST the one buffer that holds its B sliver or panel
// and its A block. Buffers of up to maxPooled elements — every NT sliver
// and every small call's buffers — go back to a sync.Pool after the call,
// so a stream of calls reuses them instead of allocating new ones. Every
// kernel reads only elements the packing wrote in the same call, so what
// a reused buffer held before never reaches C.
type packScratch[T Float] struct{ pool sync.Pool }

// maxPooled bounds the pooled buffers. A packed NN panel (up to half a
// MiB) is allocated per call instead: zeroing it costs a few percent of a
// call that large, while pooling it would keep one per worker live.
const maxPooled = 1 << 15

var (
	f32Scratch packScratch[float32]
	f64Scratch packScratch[float64]
)

// get returns a buffer of n elements, reusing a pooled one large enough.
func (s *packScratch[T]) get(n int) *[]T {
	if n <= maxPooled {
		if buf, ok := s.pool.Get().(*[]T); ok && cap(*buf) >= n {
			*buf = (*buf)[:n]
			return buf
		}
	}
	buf := make([]T, n)
	return &buf
}

// put returns a buffer from get to the pool, if it is small enough.
func (s *packScratch[T]) put(buf *[]T) {
	if cap(*buf) <= maxPooled {
		s.pool.Put(buf)
	}
}

func alphaBeta[T Float](first bool, beta T) T {
	if first {
		return beta
	}
	return 1
}
