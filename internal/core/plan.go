package core

import (
	"fmt"
	"strings"

	"libshalom/internal/analytic"
	"libshalom/internal/guard"
	"libshalom/internal/kernels"
	"libshalom/internal/pack"
	"libshalom/internal/parallel"
	"libshalom/internal/platform"
	"libshalom/internal/telemetry"
)

// Plan describes every decision the driver will take for a GEMM call,
// before any arithmetic happens: the micro-kernel tiles, the blocking, the
// §4 packing strategy, the §5.3.2 lookahead depth, and the §6 parallel
// partition. It exists for introspection (tools, tests, documentation);
// the driver and PlanFor share one derivation (derivePlan).
//
// For parallel calls the packing decision is re-evaluated per thread on the
// thread's sub-block; Plan reports the decision for the whole problem and
// for one representative thread block.
type Plan struct {
	Mode      Mode
	ElemBytes int
	// Tile is the modelled §5.2 register tile (7×12 FP32, 7×6 FP64 for 32
	// NEON registers), which the isacheck contracts, the ISA programs and
	// the timing model use.
	Tile analytic.Tile
	// HostTile is the tile the driver sweeps on this host, sized for the
	// kernel level it runs (internal/kernels.HostTileFor).
	HostTile kernels.HostTile
	Blocking analytic.Blocking
	// ShapeClass is the telemetry workload regime of the problem — the
	// shape_class label its metrics are keyed by.
	ShapeClass telemetry.ShapeClass

	// BStrategy is the §4 decision for the whole problem's B footprint.
	BStrategy pack.Strategy
	// Depth is the §5.3.2 packing lookahead (0 = current sliver only).
	Depth pack.Depth
	// PackA reports whether the transposed A operand is gathered into a
	// row-major block buffer (TN/TT, §4.3).
	PackA bool

	Threads   int
	Partition analytic.Partition
	// ThreadBlockM/N is the representative per-thread C block.
	ThreadBlockM, ThreadBlockN int
	// ThreadBStrategy is the §4 decision one thread makes for its block.
	ThreadBStrategy pack.Strategy
}

// PlanFor computes the execution plan the driver would follow.
func PlanFor(cfg Config, mode Mode, m, n, k, elemBytes int) Plan {
	plat := cfg.platform()
	x := derivePlan(plat, mode, elemBytes)
	p := Plan{
		Mode:       mode,
		ElemBytes:  elemBytes,
		Tile:       x.tile,
		HostTile:   x.host,
		Blocking:   x.blk,
		ShapeClass: telemetry.ClassifyShape(m, n, k),
		BStrategy:  x.packB(n, k),
		Depth:      pack.DepthFor(n*k*elemBytes, plat.LLC().SizeBytes),
		PackA:      mode.TransA(),
		Threads:    1,
		Partition:  analytic.Partition{TM: 1, TN: 1},
	}
	p.ThreadBlockM, p.ThreadBlockN = m, n
	p.ThreadBStrategy = p.BStrategy

	if cfg.Threads > 1 && m > 0 && n > 0 {
		part, blocks := x.split(m, n, cfg.Threads)
		if len(blocks) > 1 {
			p.Threads = cfg.Threads
			p.Partition = part
			worst := blocks[0]
			for _, b := range blocks {
				if b.M*b.N > worst.M*worst.N {
					worst = b
				}
			}
			p.ThreadBlockM, p.ThreadBlockN = worst.M, worst.N
			p.ThreadBStrategy = x.packB(worst.N, k)
		}
	}
	return p
}

// execPlan is the driver's per-call decision sequence (Alg. 1), derived in
// one place for single calls, batches and PlanFor: the modelled §5.2 tile,
// the host tile the loop nest sweeps, the §5.5 blocking and the breaker
// path they run under, with the per-problem §4 packing choice and §6
// partition as methods. A tuned dispatch override substitutes both tiles,
// KC and path (resolveOverride). The driver passes it by pointer: it is
// copied only where a tuned tile or a threaded fan-out needs a copy of its
// own.
type execPlan struct {
	plat      *platform.Platform
	mode      Mode
	elemBytes int
	tile      analytic.Tile
	host      kernels.HostTile
	blk       analytic.Blocking
	path      string
}

func derivePlan(plat *platform.Platform, mode Mode, elemBytes int) execPlan {
	return execPlan{
		plat:      plat,
		mode:      mode,
		elemBytes: elemBytes,
		tile:      analytic.SolveForElem(elemBytes),
		host:      kernels.HostTileFor(elemBytes),
		blk:       analytic.BlockingFor(plat, elemBytes),
		path:      guard.PathFor(elemBytes),
	}
}

// packB is the §4 packing decision for an n-column, k-deep B operand: NN/TN
// pack only when B overflows L1 (§4.2), NT/TT always pack (§4.3).
func (p *execPlan) packB(n, k int) pack.Strategy {
	if p.mode.TransB() {
		return pack.ShouldPackBNT()
	}
	return pack.ShouldPackBNN(n*k*p.elemBytes, p.plat.L1.SizeBytes)
}

// split is the §6 partition of an m×n problem over threads and the C
// blocks it yields, aligned to the host tile the blocks are swept in.
func (p *execPlan) split(m, n, threads int) (analytic.Partition, []parallel.Block) {
	part := analytic.PartitionFor(m, n, threads)
	return part, parallel.Blocks(m, n, part, p.host.MR, p.host.NR)
}

// String renders the plan for humans.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode %s, %d-byte elements, shape class %s\n", p.Mode, p.ElemBytes, p.ShapeClass)
	fmt.Fprintf(&b, "micro-kernel tile: %dx%d (CMR %.2f, %d registers)\n", p.Tile.MR, p.Tile.NR, p.Tile.CMR, p.Tile.Regs)
	fmt.Fprintf(&b, "host tile: %dx%d (%s kernels)\n", p.HostTile.MR, p.HostTile.NR, p.HostTile.Level)
	fmt.Fprintf(&b, "blocking: mc=%d kc=%d nc=%d\n", p.Blocking.MC, p.Blocking.KC, p.Blocking.NC)
	fmt.Fprintf(&b, "B packing: %s (lookahead t=%d)", p.BStrategy, int(p.Depth))
	if p.PackA {
		b.WriteString("; A gathered from transposed storage")
	}
	b.WriteByte('\n')
	if p.Threads > 1 {
		fmt.Fprintf(&b, "parallel: %d threads as Tm=%d x Tn=%d; per-thread block %dx%d (B packing there: %s)\n",
			p.Threads, p.Partition.TM, p.Partition.TN, p.ThreadBlockM, p.ThreadBlockN, p.ThreadBStrategy)
	} else {
		b.WriteString("single-threaded\n")
	}
	return b.String()
}
