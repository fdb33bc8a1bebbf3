package kernels

import "fmt"

// kernelLevel is a set of host kernels the micro-kernel entry points can
// run, in increasing order of what the CPU must implement.
type kernelLevel int32

const (
	levelPureGo kernelLevel = iota
	levelAVX2
	levelAVX512
)

var levelNames = [...]string{
	levelPureGo: "purego",
	levelAVX2:   "avx2",
	levelAVX512: "avx512",
}

// Level names the host kernels the micro-kernel entry points run:
// "avx512", "avx2", or "purego" for the portable Go kernels.
func Level() string { return levelNames[currentLevel()] }

// Levels lists the kernel levels this build can run on this CPU, best
// first: the one the CPU check chose, every lower SIMD level, and purego.
func Levels() []string {
	out := make([]string, 0, hostLevel+1)
	for lv := hostLevel; lv >= levelPureGo; lv-- {
		out = append(out, levelNames[lv])
	}
	return out
}

// SetLevel switches every micro-kernel entry point to the named level, one
// of Levels(). It exists for in-process comparisons of the levels, such as
// make bench-smoke; every level gives bit-identical results. A level the
// build or CPU cannot run is an error and leaves the level unchanged.
func SetLevel(name string) error {
	for lv, n := range levelNames {
		if n != name {
			continue
		}
		if kernelLevel(lv) > hostLevel {
			return fmt.Errorf("kernels: level %q needs a CPU feature this host or build lacks (best: %s)", name, levelNames[hostLevel])
		}
		storeLevel(kernelLevel(lv))
		return nil
	}
	return fmt.Errorf("kernels: unknown kernel level %q", name)
}

// simd reports whether the entry points run a SIMD level.
func simd() bool { return currentLevel() != levelPureGo }

// HostTile is the mr×nr tile the GEMM drivers sweep on this host: the
// §5.2 register tile re-sized for the registers the kernel level runs on.
// The plan's modelled tile (internal/analytic) stays the paper's, sized
// for 32 NEON registers.
type HostTile struct {
	MR, NR int
	// Level is the kernel level the tile is sized for.
	Level string
}

// hostTiles is the host tile per kernel level, FP32 then FP64. Both SIMD
// levels sweep 8×32 / 8×16: two 4-row register blocks over two zmm
// registers (or 12+12+8 / 6+6+4 ymm and xmm chunks) per row. On the
// irregular grid, passes alternating in one process ran 32-wide FP32
// tiles about 13% faster than 16-wide ones, with 4, 8 and 16 rows and a
// 64-wide tile within noise of each other; Eq. 1's CMR objective on the
// unfused zmm budget would pick a tall 28–29×16 tile that splits small M
// badly. The pure-Go kernels keep the modelled 7×12 / 7×6.
var hostTiles = [...][2]HostTile{
	levelPureGo: {{7, 12, "purego"}, {7, 6, "purego"}},
	levelAVX2:   {{8, 32, "avx2"}, {8, 16, "avx2"}},
	levelAVX512: {{8, 32, "avx512"}, {8, 16, "avx512"}},
}

// HostTileFor returns the host tile for elemBytes-byte elements at the
// current kernel level. It is read per call, so a SetLevel takes effect on
// the next GEMM call.
func HostTileFor(elemBytes int) HostTile {
	t := hostTiles[currentLevel()]
	if elemBytes == 8 {
		return t[1]
	}
	return t[0]
}
