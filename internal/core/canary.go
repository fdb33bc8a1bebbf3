package core

import (
	"fmt"
	"math"

	"libshalom/internal/faults"
	"libshalom/internal/heal"
	"libshalom/internal/parallel"
	"libshalom/internal/telemetry"
)

// runCanary executes one call while its breaker is probing: the reference
// path runs first into a cloned shadow of the C rectangle, then the fast
// path runs into the real C (single-threaded, under panic isolation), and
// the two results are compared element-wise under the precision's tolerance.
//
// p.path names the breaker under probation — the kernel family's path
// (guard.PathFor) for healing canaries, or a tuned override's private path
// when the autotuner is proving a candidate tile on live traffic (tuned
// true; p then carries the candidate's tile and KC).
//
// On agreement the canary counts toward closing the breaker. On any
// disagreement — a fast-path panic, an element outside tolerance, or the
// CanaryMismatch/TunerBadCandidate injection points firing — the shadow
// (the correct reference result) is copied into C, so the caller always
// receives a correct answer, and the breaker re-opens with a doubled
// cooldown (for a tuned path, the trip also evicts the dispatch override,
// restoring the incumbent tile). The returned degraded flag reports whether
// the call fell back to the reference result.
func runCanary[T Float](cfg Config, ks kernelSet[T], p *execPlan, tuned bool, tid int32, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) (degraded bool) {
	tel := cfg.Tel
	mode := p.mode
	tel.HealEvent(telemetry.HealCanaryRun)

	// The shadow starts as a clone of C (dense, leading dimension n) so the
	// reference path sees the same beta·C term the fast path does.
	shadow := snapshotC(c, m, n, ldc)
	ks.ref(mode.TransA(), mode.TransB(), m, n, k, alpha, a, lda, b, ldb, beta, shadow, n)

	bl := parallel.Block{I0: 0, J0: 0, M: m, N: n}
	panicErr := protect(p, bl, -1, func() {
		if faults.Fire(faults.PanicInKernel) {
			tel.FaultInjected(faults.PanicInKernel)
			panic(faults.InjectedPanicMsg)
		}
		gemmST(tel, tid, ks, p, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	})
	if tuned && panicErr == nil && m > 0 && n > 0 && faults.Fire(faults.TunerBadCandidate) {
		// Chaos: a candidate that cleared every static proof yet computes a
		// wrong answer on live traffic. The corruption lands in the fast-path
		// result only — the comparison below must catch it and the shadow
		// must rescue the caller.
		tel.FaultInjected(faults.TunerBadCandidate)
		c[0] = T(math.NaN())
	}

	mismatch := ""
	switch {
	case panicErr != nil:
		mismatch = panicErr.Error()
	case !heal.Agrees(c, ldc, shadow, n, m, n, heal.Tolerance(ks.elemBytes)):
		mismatch = "canary disagreed with reference shadow"
	case faults.Fire(faults.CanaryMismatch):
		tel.FaultInjected(faults.CanaryMismatch)
		mismatch = "injected canary mismatch"
	}
	if mismatch != "" {
		// The reference shadow is the correct result; the call still succeeds.
		restoreC(c, shadow, m, n, ldc)
		shape := fmt.Sprintf("%s %dx%dx%d", mode, m, n, k)
		if heal.ReportMismatch(p.plat.Name, p.path, mismatch, shape) {
			tel.HealEvent(telemetry.HealBreakerOpen)
			tel.BreakerTransition(telemetry.BreakerProbing, telemetry.BreakerOpen)
		}
		tel.HealEvent(telemetry.HealCanaryMismatch)
		tel.DegradationEvent(telemetry.DegrCanary)
		return true
	}
	tel.HealEvent(telemetry.HealCanaryAgree)
	if heal.ReportAgree(p.plat.Name, p.path) {
		tel.HealEvent(telemetry.HealBreakerClose)
		tel.BreakerTransition(telemetry.BreakerProbing, telemetry.BreakerHealthy)
	}
	return false
}
