package main

import (
	"runtime"
	"time"

	"libshalom"
	"libshalom/internal/analytic"
	"libshalom/internal/core"
	"libshalom/internal/guard"
	"libshalom/internal/heal"
	"libshalom/internal/kernels"
	"libshalom/internal/pack"
	"libshalom/internal/parallel"
	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
)

// setupOp is the first op of a library workload run: a fixed shape from the
// workload's distribution with seeded values, so the set-up time does not
// depend on which shape the shuffle puts first.
func setupOp(workload string, seed uint64) *gemmOp {
	var o *gemmOp
	if workload == "irregular" {
		o = newOp(false, libshalom.NN, 16, 1024, 256, 1, 1, seed, 1<<40)
	} else {
		o = newOp(false, libshalom.NN, 8, 8, 8, 1, 1, seed, 1<<40)
	}
	o.allocate()
	return o
}

// libSetupProbe is the set-up of a library workload as a user meets it:
// build the context and run the first op. It returns when the op returned
// and how long making the op's inputs and reference took before that; the
// result is checked after.
func libSetupProbe(workload string, seed uint64) (answered time.Time, gen time.Duration, err error) {
	t0 := time.Now()
	o := setupOp(workload, seed)
	ref := o.referenceNow()
	gen = time.Since(t0)
	lib := libshalom.New()
	defer lib.Close()
	err = o.runLib(lib)
	answered = time.Now()
	if err == nil {
		err = o.checkAgainst(ref)
	}
	return answered, gen, err
}

func libPool(workload string, seed uint64) []*call {
	if workload == "irregular" {
		var calls []*call
		for _, o := range genIrregular(seed) {
			calls = append(calls, &call{ops: []*gemmOp{o}})
		}
		return calls
	}
	return genSmallCalls(seed)
}

// passFigures are one timed pass's GEMM rate, flop rate and call latency
// percentiles.
type passFigures struct {
	ops, flops, p50, p90, p99 float64
}

// maxPasses bounds the passes a run keeps figures for without growing the
// slice: a small-calls pass takes about 0.1 s on a 2-vCPU Xeon.
const maxPasses = 1 << 14

// runLib runs a library workload: one closed-loop caller cycles through
// the pool in whole passes until the measuring time has passed. The first
// pass is a warm-up that checks every entry against the float64 reference;
// timed passes check every result bit for bit against the verified one.
// Only the API calls are timed: restoring C and checking are not.
func runLib(rc runConfig) (*outcome, error) {
	calls := libPool(rc.workload, rc.seed)
	out := newOutcome()
	// Every buffer the timed phase writes is made before the heap baseline,
	// with a size fixed by the pool: no part of the heap figure grows with
	// the number of calls a run makes.
	passLat := make([]float64, len(calls))
	passes := make([]passFigures, 0, maxPasses)
	heap := newHeapLive(rc.seconds)
	lib := libshalom.New()
	defer lib.Close()
	degradedBefore := len(libshalom.DegradationHistory())

	for _, c := range calls {
		if failed, err := verifyCall(lib, c); failed > 0 {
			out.failed += failed
			rc.logf("wrong result in warm-up pass: %v", err)
		}
		out.attempted += c.gemms()
	}

	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	// In a traced run the passes alternate traced and untraced, so the
	// tracing overhead is measured on the same ops in the same process.
	// Every figure is a median over passes of the pass's figure: a host
	// stall slows a few passes, not the figure.
	var busy [2]time.Duration
	var gemms [2]int
	var timedCalls int
	runtime.GC() // the live heap at the start leaves out the warm-up's garbage
	rtBefore := readRuntime()
	start := time.Now()
	for pass := 0; ; pass++ {
		traced := rc.trace && pass%2 == 0
		var pBusy time.Duration
		var pGemms, pFlops float64
		for ci, c := range calls {
			c.restore()
			t0 := time.Now()
			err := c.exec(lib)
			t1 := time.Now()
			d := t1.Sub(t0)
			slot := 0
			if traced {
				slot = 1
				tr.record(c.apiName(), int64(ci), "", t0, t1, false)
			}
			busy[slot] += d
			gemms[slot] += c.gemms()
			pBusy += d
			pGemms += float64(c.gemms())
			pFlops += c.flops()
			passLat[ci] = float64(d.Nanoseconds()) / 1e3
			out.attempted += c.gemms()
			bad := c.mismatches()
			if err != nil {
				bad = c.gemms()
				rc.logf("%s failed: %v", c.apiName(), err)
			}
			out.failed += bad
			heap.observe(t1)
		}
		timedCalls += len(calls)
		passes = append(passes, passFigures{
			ops:   pGemms / pBusy.Seconds(),
			flops: pFlops / pBusy.Seconds(),
			p50:   quantile(passLat, 0.5),
			p90:   quantile(passLat, 0.9),
			p99:   quantile(passLat, 0.99),
		})
		if time.Since(start).Seconds() >= rc.seconds && (!rc.trace || pass >= 1) {
			break
		}
	}
	rtAfter := readRuntime()
	totalGemms := gemms[0] + gemms[1]
	med := func(f func(passFigures) float64) float64 {
		v := make([]float64, len(passes))
		for i, p := range passes {
			v[i] = f(p)
		}
		return quantile(v, 0.5)
	}
	out.values["ops_per_s"] = med(func(p passFigures) float64 { return p.ops })
	out.values["gflops"] = med(func(p passFigures) float64 { return p.flops }) / 1e9
	out.values["lat_p50_us"] = med(func(p passFigures) float64 { return p.p50 })
	out.values["lat_p90_us"] = med(func(p passFigures) float64 { return p.p90 })
	out.values["heap_live_mb"] = heap.mb()
	out.record["calls_timed"] = timedCalls
	out.record["gemms_timed"] = totalGemms
	out.record["pool_calls"] = len(calls)
	out.record["passes_timed"] = len(passes)
	out.record["lat_p99_us"] = med(func(p passFigures) float64 { return p.p99 })
	heap.record(out)
	if !rc.trace {
		return out, nil
	}

	out.values["trace.overhead_share"] = ratio(busy[1].Seconds()/float64(gemms[1]), busy[0].Seconds()/float64(gemms[0])) - 1
	out.runtimeMetrics(rtBefore, rtAfter, totalGemms)
	replayLayers(rc, lib, calls, tr, out)
	out.values["guard.degraded_ops"] = float64(len(libshalom.DegradationHistory()) - degradedBefore)
	for _, name := range serveOnly {
		out.values[name] = 0
	}
	if err := rc.writeSpans(tr); err != nil {
		return nil, err
	}
	return out, nil
}

// serveOnly are the per-layer metrics of the serving path; the library
// workloads do not pass through it and report 0.
var serveOnly = []string{
	"server.decode_us", "server.handler_us.p50", "server.handler_us.p99",
	"server.queue_wait_us.p50", "server.queue_wait_us.p99", "server.batch_size_mean",
	"server.shed_share", "server.timeout_share", "router.hop_us.p50", "router.hop_us.p99",
	"router.attempts_mean", "client.residual_us.p50", "loadgen.lag_p99_us",
}

// layerSums accumulates the replay timings of the library layers.
type layerSums struct {
	ops                     int
	overheadNs              []float64 // root-API minus core time, per op
	coreNs, planNs, dispNs  float64
	ikjNs, refNs            float64
	coreLatUS               []float64
	packNs, packBytes       float64
	parFlops, parNs, par1Ns float64
	batchNs, singlesNs      float64
	batchEntries            int
}

// replayLayers re-runs the ops of the pool through each layer's public
// functions, on the ops' own inputs, until the replay budget is spent; each
// replay is recorded as a span labelled as such. Exact counts (edge flops,
// bytes, packing decisions, block balance) cover the whole pool.
func replayLayers(rc runConfig, lib *libshalom.Context, calls []*call, tr *tracer, out *outcome) {
	plat := lib.Platform()
	nproc := runtime.GOMAXPROCS(0)
	pool := parallel.NewPool(nproc)
	defer pool.Close()
	var s layerSums
	var buf packBuf
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	// Replay spans carry the id of the call whose inputs they run on, the
	// same id as that call's real spans.
	var id int64
	timed := func(name string, fn func()) float64 {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		tr.record(name, id, "", t0, t1, true)
		return float64(t1.Sub(t0).Nanoseconds())
	}
	for ci, c := range calls {
		if time.Now().After(deadline) && s.ops > 0 {
			break
		}
		id = int64(ci)
		if c.batch {
			c.restore()
			s.batchNs += timed("replay.libshalom.batch", func() { _ = c.exec(lib) })
			c.restore()
			s.singlesNs += timed("replay.libshalom.batch_as_singles", func() {
				for _, o := range c.ops {
					_ = o.runLib(lib)
				}
			})
			s.batchEntries += len(c.ops)
		}
		for _, o := range c.ops {
			eb := o.elemBytes()
			plan := lib.PlanFor(o.mode, o.m, o.n, o.k, eb)
			cfg := core.Config{Plat: plat, Threads: plan.Threads, RetryTransient: true}
			if plan.Threads > 1 {
				cfg.Pool = pool
			}
			o.restore()
			_ = o.runCore(cfg) // warms the op's operands for every replay below
			// The root-API and core replays alternate which runs first, so
			// neither is favoured by the cache state the other leaves.
			var ctxNs, coreNs float64
			for i := 0; i < 2; i++ {
				o.restore()
				if (s.ops+i)%2 == 0 {
					ctxNs = timed("replay.libshalom", func() { _ = o.runLib(lib) })
				} else {
					coreNs = timed("replay.core", func() { _ = o.runCore(cfg) })
				}
			}
			s.overheadNs = append(s.overheadNs, ctxNs-coreNs)
			s.coreNs += coreNs
			s.coreLatUS = append(s.coreLatUS, coreNs/1e3)
			s.planNs += timed("replay.analytic.plan", func() { timePlan(plat, eb, o.m, o.n, plan.Threads) }) / planReps
			class := uint8(telemetry.ClassifyShape(o.m, o.n, o.k))
			s.dispNs += timed("replay.guard.dispatch", func() { timeDispatch(plat, eb, class) }) / planReps
			o.restore()
			s.ikjNs += timed("replay.ikj", o.runIKJ)
			o.restore()
			s.refNs += timed("replay.kernels.ref", o.runRef)
			var bytes float64
			packNs := timed("replay.pack", func() { bytes = buf.replay(o, plan) })
			if bytes > 0 {
				s.packNs += packNs
				s.packBytes += bytes
			}
			if plan.Threads > 1 {
				one := cfg
				one.Threads, one.Pool = 1, nil
				o.restore()
				s.par1Ns += timed("replay.core.1thread", func() { _ = o.runCore(one) })
				s.parNs += coreNs
				s.parFlops += o.flops()
			}
			s.ops++
		}
	}
	rc.logf("replayed %d ops through the layers", s.ops)
	n := float64(s.ops)
	out.values["libshalom.overhead_ns"] = quantile(s.overheadNs, 0.5)
	out.values["analytic.plan_ns"] = s.planNs / n
	out.values["analytic.plan_share"] = ratio(s.planNs, s.coreNs)
	out.values["guard.dispatch_ns"] = s.dispNs / n
	out.values["core.call_us.p50"] = quantile(s.coreLatUS, 0.5)
	out.values["core.vs_ikj"] = ratio(s.coreNs, s.ikjNs)
	out.values["core.vs_ref"] = ratio(s.coreNs, s.refNs)
	out.values["core.batch_entry_ns"] = ratio(s.batchNs, float64(s.batchEntries))
	out.values["core.batch_gain"] = ratio(s.singlesNs, s.batchNs)
	out.values["pack.gbps"] = ratio(s.packBytes, s.packNs)
	out.values["pack.share"] = ratio(s.packNs, s.coreNs)
	out.values["parallel.scaling_eff"] = ratio(s.par1Ns, float64(nproc)*s.parNs)
	out.record["replayed_ops"] = s.ops
	out.record["parallel_replayed_ops_gflops_all_threads"] = ratio(s.parFlops, s.parNs)

	exactCounts(lib, calls, out)
	out.values["parallel.run_overhead_us"] = poolRunOverhead(pool, nproc)
	out.values["telemetry.overhead_ns"] = telemetryOverhead()
}

const planReps = 8

var (
	sinkTile  analytic.Tile
	sinkBlk   analytic.Blocking
	sinkPart  analytic.Partition
	sinkRoute heal.Route
	sinkOv    bool
)

// timePlan runs the plan layer planReps times: the Eq. 1–2 tile solve, the
// cache blocking and, for a parallel call, the Eq. 3–4 partition.
func timePlan(plat *platform.Platform, eb, m, n, threads int) {
	for r := 0; r < planReps; r++ {
		sinkTile = analytic.SolveForElem(eb)
		sinkBlk = analytic.BlockingFor(plat, eb)
		if threads > 1 {
			sinkPart = analytic.PartitionFor(m, n, threads)
		}
	}
}

// timeDispatch runs the per-call guard layer planReps times: the (memoised)
// contract check, the breaker route and the tile-override lookup.
func timeDispatch(plat *platform.Platform, eb int, class uint8) {
	for r := 0; r < planReps; r++ {
		guard.VerifyContracts(plat)
		sinkRoute, _ = heal.RouteFor(plat.Name, guard.PathFor(eb))
		_, sinkOv = guard.OverrideFor(eb, class)
	}
}

// packBuf replays the packing the core plan implies for an op over its
// (kc, nc) blocks of B and (mc, kc) blocks of a transposed A.
type packBuf struct {
	s []float32
	d []float64
}

func (p *packBuf) replay(o *gemmOp, plan core.Plan) (bytes float64) {
	kc, nc, mc := plan.Blocking.KC, plan.Blocking.NC, plan.Blocking.MC
	packB := o.mode.TransB() || plan.BStrategy != pack.NoPack
	packA := o.mode.TransA()
	var elems int
	if packB {
		for k0 := 0; k0 < o.k; k0 += kc {
			kb := min(kc, o.k-k0)
			for j0 := 0; j0 < o.n; j0 += nc {
				jb := min(nc, o.n-j0)
				elems += kb * jb
				if o.f64 {
					p.d = growTo(p.d, kb*jb)
					if o.mode.TransB() {
						pack.PackBTransposedF64(p.d, o.d.b, o.ldb, k0, j0, kb, jb)
					} else {
						pack.PackBF64(p.d, o.d.b, o.ldb, k0, j0, kb, jb)
					}
				} else {
					p.s = growTo(p.s, kb*jb)
					if o.mode.TransB() {
						pack.PackBTransposedF32(p.s, o.s.b, o.ldb, k0, j0, kb, jb)
					} else {
						pack.PackBF32(p.s, o.s.b, o.ldb, k0, j0, kb, jb)
					}
				}
			}
		}
	}
	if packA {
		for i0 := 0; i0 < o.m; i0 += mc {
			ib := min(mc, o.m-i0)
			for k0 := 0; k0 < o.k; k0 += kc {
				kb := min(kc, o.k-k0)
				elems += ib * kb
				if o.f64 {
					p.d = growTo(p.d, ib*kb)
					pack.PackATransposedF64(p.d, o.d.a, o.lda, i0, k0, ib, kb)
				} else {
					p.s = growTo(p.s, ib*kb)
					pack.PackATransposedF32(p.s, o.s.a, o.lda, i0, k0, ib, kb)
				}
			}
		}
	}
	return 2 * float64(elems*o.elemBytes()) // each element read once and written once
}

// exactCounts derives the counted (not timed) layer metrics over the whole
// pool from each op's plan.
func exactCounts(lib *libshalom.Context, calls []*call, out *outcome) {
	plat := lib.Platform()
	var flops, edge, bytes float64
	var ops, packed, par int
	var imbalance []float64
	prec := map[int]int{}
	for _, c := range calls {
		for _, o := range c.ops {
			eb := o.elemBytes()
			plan := lib.PlanFor(o.mode, o.m, o.n, o.k, eb)
			blocks := []parallel.Block{{M: o.m, N: o.n}}
			if plan.Threads > 1 {
				blocks = parallel.Blocks(o.m, o.n, plan.Partition, plan.Tile.MR, plan.Tile.NR)
				var maxF, sumF float64
				for _, b := range blocks {
					f := float64(b.M * b.N)
					maxF = max(maxF, f)
					sumF += f
				}
				imbalance = append(imbalance, maxF/(sumF/float64(len(blocks))))
				par++
			}
			for _, b := range blocks {
				full := (b.M / plan.Tile.MR * plan.Tile.MR) * (b.N / plan.Tile.NR * plan.Tile.NR)
				edge += 2 * float64(o.k) * float64(b.M*b.N-full)
			}
			flops += o.flops()
			bytes += o.bytes()
			if plan.BStrategy != pack.NoPack {
				packed++
			}
			prec[eb]++
			ops++
		}
	}
	out.values["kernels.edge_flop_share"] = ratio(edge, flops)
	out.values["kernels.flops_per_byte"] = ratio(flops, bytes)
	out.values["pack.packed_op_share"] = ratio(float64(packed), float64(ops))
	out.values["parallel.block_imbalance"] = mean(imbalance)
	out.record["parallel_ops"] = par
	var micro, microNT float64
	for eb, n := range prec {
		w := float64(n) / float64(ops)
		micro += w * microGflops(plat, eb, false)
		microNT += w * microGflops(plat, eb, true)
	}
	out.values["kernels.micro_gflops"] = micro
	out.values["kernels.micro_nt_gflops"] = microNT
}

// microGflops times the precision's main (or NT) micro-kernel on full
// mr×nr×kc tiles of the plan, with L1-resident operands.
func microGflops(plat *platform.Platform, eb int, nt bool) float64 {
	tile := analytic.SolveForElem(eb)
	kc := analytic.BlockingFor(plat, eb).KC
	mr, nr := tile.MR, tile.NR
	const minTime = 20 * time.Millisecond
	reps := 0
	start := time.Now()
	a32, b32, c32 := make([]float32, mr*kc), make([]float32, kc*nr), make([]float32, mr*nr)
	a64, b64, c64 := make([]float64, mr*kc), make([]float64, kc*nr), make([]float64, mr*nr)
	for time.Since(start) < minTime {
		for r := 0; r < 64; r++ {
			switch {
			case eb == 8 && nt:
				kernels.DGEMMMicroNT(mr, nr, kc, 1, a64, kc, b64, kc, 1, c64, nr)
			case eb == 8:
				kernels.DGEMMMicro(mr, nr, kc, 1, a64, kc, b64, nr, 1, c64, nr)
			case nt:
				kernels.SGEMMMicroNT(mr, nr, kc, 1, a32, kc, b32, kc, 1, c32, nr)
			default:
				kernels.SGEMMMicro(mr, nr, kc, 1, a32, kc, b32, nr, 1, c32, nr)
			}
		}
		reps += 64
	}
	return 2 * float64(mr*nr*kc) * float64(reps) / time.Since(start).Seconds() / 1e9
}

// poolRunOverhead is the median cost of one Pool.RunWorker round with one
// empty task per worker, in µs.
func poolRunOverhead(pool *parallel.Pool, nproc int) float64 {
	tasks := make([]func(int), nproc)
	for i := range tasks {
		tasks[i] = func(int) {}
	}
	var samples []float64
	for r := 0; r < 2000; r++ {
		t0 := time.Now()
		_ = pool.RunWorker(tasks)
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return quantile(samples, 0.5)
}

// telemetryOverhead is the median extra time of a tiny f32 8³ call on a
// context with telemetry over one without, in ns.
func telemetryOverhead() float64 {
	plain, tel := libshalom.New(), libshalom.New(libshalom.WithTelemetry())
	defer plain.Close()
	defer tel.Close()
	o := newOp(false, libshalom.NN, 8, 8, 8, 1, 0, 1, 0)
	o.allocate()
	var withT, without []float64
	for r := 0; r < 4000; r++ {
		for i, lib := range []*libshalom.Context{plain, tel} {
			t0 := time.Now()
			_ = o.runLib(lib)
			d := float64(time.Since(t0).Nanoseconds())
			if i == 0 {
				without = append(without, d)
			} else {
				withT = append(withT, d)
			}
		}
	}
	return quantile(withT, 0.5) - quantile(without, 0.5)
}
