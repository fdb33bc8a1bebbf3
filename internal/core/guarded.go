package core

import (
	"fmt"
	"math"
	"runtime/debug"

	"libshalom/internal/faults"
	"libshalom/internal/guard"
	"libshalom/internal/heal"
	"libshalom/internal/parallel"
	"libshalom/internal/telemetry"
)

// This file is the dynamic-hardening layer of the driver: every block
// computation (a thread's C sub-block, or one batch entry) runs through
// runBlock, which provides
//
//   - panic isolation, always on: a panicking fast path is recovered and
//     surfaced as a *guard.KernelPanicError instead of crashing the process
//     or killing a pool worker;
//   - the numeric guard, when Config.NumericGuard is set: if the fast path
//     panics or introduces NaN/Inf into a C block whose inputs were all
//     finite, the (platform, precision) kernel family is demoted, the block
//     is restored from a snapshot and recomputed on the portable reference
//     path, and the call still succeeds — degraded, recorded, correct.
//
// The faults package's injection points live here (and only fire when a
// test armed them), so the chaos suite exercises exactly the machinery
// production calls use.

// runBlock executes the fast path for one C block under plan p with panic
// isolation and (optionally) the numeric guard. a, b and c are the
// block-relative operand views the caller derived (the same views gemmST
// consumes); bl carries the absolute block coordinates for error reporting,
// entry the batch entry index (-1 outside batch calls), and tid the trace
// lane of the executing worker. p.path names the breaker a demotion trips:
// the kernel family's path for incumbent executions, or a tuned override's
// private path — tripping the latter evicts only that override
// (guard.Trip), leaving the family serving on the incumbent tile. The first
// return value reports whether the block was recomputed on the reference
// path after a demotion (the call degraded but succeeded).
func runBlock[T Float](cfg Config, ks kernelSet[T], p *execPlan, bl parallel.Block, entry int, tid int32, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) (degraded bool, err error) {
	tel := cfg.Tel
	mode := p.mode
	m, n := bl.M, bl.N
	blockStart := tel.Now()
	defer func() {
		tel.Span(telemetry.PhaseBlock, tid, blockStart, uint8(mode), telemetry.PrecFor(ks.elemBytes), m, n, k)
	}()
	ksEff := ks
	var inputsFinite bool
	var snap []T
	// The snapshot exists to undo a partial fast-path write before the
	// reference recompute. RetryTransient alone only needs it when beta != 0:
	// with beta == 0 the reference path overwrites C without reading it, so
	// no restore is required.
	if cfg.NumericGuard {
		if faults.Armed(faults.CorruptPack) {
			ksEff = corruptPackKernels(ks, tel)
		}
		inputsFinite = finiteOperands(mode, m, n, k, a, lda, b, ldb, beta, c, ldc)
		snap = snapshotC(c, m, n, ldc)
	} else if cfg.RetryTransient && beta != 0 {
		snap = snapshotC(c, m, n, ldc)
	}
	panicErr := protect(p, bl, entry, func() {
		if faults.Fire(faults.PanicInKernel) {
			tel.FaultInjected(faults.PanicInKernel)
			panic(faults.InjectedPanicMsg)
		}
		gemmST(tel, tid, ksEff, p, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		if cfg.NumericGuard && faults.Fire(faults.SpuriousNaN) {
			tel.FaultInjected(faults.SpuriousNaN)
			c[0] = T(math.NaN())
		}
	})
	if !cfg.NumericGuard && !cfg.RetryTransient {
		return false, panicErr
	}
	// shape is only rendered on the demotion paths; the healthy path stays
	// allocation-free beyond the guard's own snapshot.
	shape := func() string { return fmt.Sprintf("%s %dx%dx%d", mode, m, n, k) }
	// trip opens the breaker and emits the open events exactly once even
	// when several blocks of one call fail concurrently (Trip reports
	// whether this call recorded the trip).
	trip := func(reason guard.Reason, detail string, degr uint8) {
		if heal.Trip(p.plat.Name, p.path, reason, detail, shape()) {
			tel.HealEvent(telemetry.HealBreakerOpen)
			tel.BreakerTransition(telemetry.BreakerHealthy, telemetry.BreakerOpen)
		}
		tel.DegradationEvent(degr)
	}
	switch {
	case panicErr != nil:
		trip(guard.ReasonPanic, panicErr.Error(), telemetry.DegrPanic)
	case cfg.NumericGuard && inputsFinite && !finiteRect(c, m, n, ldc):
		trip(guard.ReasonNumeric, "fast path produced NaN/Inf from all-finite inputs",
			telemetry.DegrNumeric)
	default:
		return false, nil
	}
	// Tripped: restore the block and recompute once on the reference path —
	// the transient retry. The degraded call succeeds; the registry records
	// why, and the breaker keeps later calls off the fast path.
	tel.HealEvent(telemetry.HealRetry)
	if snap != nil {
		restoreC(c, snap, m, n, ldc)
	}
	ks.ref(mode.TransA(), mode.TransB(), m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	return true, nil
}

// protect runs f, converting a panic into a structured KernelPanicError
// naming the plan's kernel family.
func protect(p *execPlan, bl parallel.Block, entry int, f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &guard.KernelPanicError{
				Platform: p.plat.Name,
				Mode:     p.mode.String(),
				Kernel:   guard.PathFor(p.elemBytes),
				I0:       bl.I0, J0: bl.J0, M: bl.M, N: bl.N,
				Entry: entry,
				Value: r,
				Stack: debug.Stack(),
			}
		}
	}()
	f()
	return nil
}

// corruptPackKernels wraps the packing micro-kernels so the CorruptPack
// injection point can poison the packed-B panel right after it is filled;
// each fire is reported to tel (nil-safe) so the chaos suite can assert a
// one-to-one fault-to-event mapping.
func corruptPackKernels[T Float](ks kernelSet[T], tel *telemetry.Recorder) kernelSet[T] {
	packB, ntPack := ks.packB, ks.ntPack
	ks.packB = func(bc []T, b []T, ldb, kc, nc, nr int) {
		packB(bc, b, ldb, kc, nc, nr)
		if len(bc) > 0 && faults.Fire(faults.CorruptPack) {
			tel.FaultInjected(faults.CorruptPack)
			bc[0] = T(math.NaN())
		}
	}
	ks.ntPack = func(mr, nr, kc int, alpha T, a []T, lda int, bT []T, ldbT int, beta T, c []T, ldc int, bc []T, nrTotal, jOff int) {
		ntPack(mr, nr, kc, alpha, a, lda, bT, ldbT, beta, c, ldc, bc, nrTotal, jOff)
		if len(bc) > 0 && faults.Fire(faults.CorruptPack) {
			tel.FaultInjected(faults.CorruptPack)
			bc[0] = T(math.NaN())
		}
	}
	return ks
}

// finiteOperands scans the operand views of one block for NaN/Inf. The scan
// covers the rectangle each effective operand occupies (rows × cols through
// its leading dimension); C is scanned only when beta != 0, since beta == 0
// overwrites C without reading it.
func finiteOperands[T Float](mode Mode, m, n, k int, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) bool {
	arows, acols := m, k
	if mode.TransA() {
		arows, acols = k, m
	}
	brows, bcols := k, n
	if mode.TransB() {
		brows, bcols = n, k
	}
	if !finiteRect(a, arows, acols, lda) || !finiteRect(b, brows, bcols, ldb) {
		return false
	}
	if beta != 0 && !finiteRect(c, m, n, ldc) {
		return false
	}
	return true
}

// finiteRect reports whether every element of the rows×cols rectangle with
// leading dimension ld is finite.
func finiteRect[T Float](s []T, rows, cols, ld int) bool {
	for i := 0; i < rows; i++ {
		row := s[i*ld : i*ld+cols]
		for _, v := range row {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return false
			}
		}
	}
	return true
}

// snapshotC copies the m×n C block out of its strided storage.
func snapshotC[T Float](c []T, m, n, ld int) []T {
	snap := make([]T, m*n)
	for i := 0; i < m; i++ {
		copy(snap[i*n:(i+1)*n], c[i*ld:i*ld+n])
	}
	return snap
}

// restoreC writes a snapshot back into the strided C block.
func restoreC[T Float](c, snap []T, m, n, ld int) {
	for i := 0; i < m; i++ {
		copy(c[i*ld:i*ld+n], snap[i*n:(i+1)*n])
	}
}
