package core

import (
	"fmt"
	"strings"
	"testing"

	"libshalom/internal/kernels"
	"libshalom/internal/pack"
	"libshalom/internal/platform"
)

func TestPlanSmallNNSkipsPacking(t *testing.T) {
	p := PlanFor(Config{Plat: platform.Phytium2000()}, NN, 32, 32, 32, 4)
	if p.BStrategy != pack.NoPack {
		t.Fatalf("small NN plan packs B: %v", p.BStrategy)
	}
	if p.Tile.MR != 7 || p.Tile.NR != 12 {
		t.Fatal("plan tile wrong")
	}
	if p.Threads != 1 {
		t.Fatal("small plan must be single-threaded")
	}
	if p.Depth != pack.DepthCurrent {
		t.Fatal("LLC-resident B must use t=0")
	}
}

func TestPlanNTAlwaysPacks(t *testing.T) {
	p := PlanFor(Config{}, NT, 8, 8, 8, 4)
	if p.BStrategy != pack.PackOverlap {
		t.Fatal("NT must always pack B (§4.3)")
	}
}

func TestPlanLargeNNPacksWithOverlap(t *testing.T) {
	p := PlanFor(Config{Plat: platform.Phytium2000()}, NN, 64, 4096, 4096, 4)
	if p.BStrategy != pack.PackOverlap {
		t.Fatal("beyond-L1 B must overlap-pack")
	}
	// 4096×4096 FP32 = 64 MB > Phytium LLC (2MB shared L2) → lookahead.
	if p.Depth != pack.DepthAhead {
		t.Fatal("beyond-LLC B must use t=1 (§5.3.2)")
	}
}

func TestPlanTransAGathers(t *testing.T) {
	if !PlanFor(Config{}, TN, 16, 16, 16, 4).PackA {
		t.Fatal("TN plan must gather A")
	}
	if PlanFor(Config{}, NT, 16, 16, 16, 4).PackA {
		t.Fatal("NT plan must not gather A")
	}
}

func TestPlanParallelPartition(t *testing.T) {
	p := PlanFor(Config{Threads: 64}, NT, 32, 10240, 5000, 4)
	if p.Threads != 64 {
		t.Fatalf("parallel plan reports %d threads", p.Threads)
	}
	if p.Partition.TN < p.Partition.TM {
		t.Fatalf("N-dominant shape partitioned %dx%d", p.Partition.TM, p.Partition.TN)
	}
	if p.ThreadBlockM != 32 || p.ThreadBlockN >= 10240 {
		t.Fatalf("thread block %dx%d implausible", p.ThreadBlockM, p.ThreadBlockN)
	}
	// A thread's B slice can fall under the L1 threshold even when the
	// whole B does not — the per-thread decision is re-evaluated.
	if p.ThreadBStrategy != pack.ShouldPackBNT() {
		t.Fatal("NT per-thread strategy must still pack")
	}
}

func TestPlanPerThreadDecisionDiffers(t *testing.T) {
	// NN with a B that exceeds L1 globally but fits per thread.
	plat := platform.KP920() // 64KB L1
	// B = 256×64 FP32 = 64KB > L1? exactly 64KB → NoPack (≤). Use 128 cols.
	p := PlanFor(Config{Plat: plat, Threads: 16}, NN, 256, 128, 256, 4)
	if p.BStrategy == pack.NoPack {
		t.Skip("global B unexpectedly fits L1")
	}
	if p.ThreadBlockN >= 128 {
		t.Fatalf("partition did not split N: %+v", p.Partition)
	}
	if p.ThreadBStrategy != pack.NoPack {
		t.Fatalf("per-thread B slice (%dx256) should fit L1", p.ThreadBlockN)
	}
}

func TestPlanString(t *testing.T) {
	s := PlanFor(Config{Threads: 64}, NT, 64, 50176, 576, 4).String()
	for _, frag := range []string{"7x12", "overlap", "Tn=", "per-thread block"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("plan rendering missing %q:\n%s", frag, s)
		}
	}
	s1 := PlanFor(Config{}, TN, 8, 8, 8, 8).String()
	if !strings.Contains(s1, "single-threaded") || !strings.Contains(s1, "A gathered") {
		t.Fatalf("TN plan rendering wrong:\n%s", s1)
	}
}

// TestPlanHostTile keeps the two tiles apart: the modelled tile stays the
// paper's 7×12 / 7×6 at every kernel level, and the host tile follows the
// level — 8×32 / 8×16 at a SIMD level, the modelled tile under purego —
// and is rendered with it.
func TestPlanHostTile(t *testing.T) {
	for _, lv := range kernels.Levels() {
		atLevel(t, lv, func() {
			for _, tc := range []struct{ elem, mr, nr, hostNR int }{{4, 7, 12, 32}, {8, 7, 6, 16}} {
				p := PlanFor(Config{}, NN, 64, 64, 64, tc.elem)
				want := kernels.HostTile{MR: 8, NR: tc.hostNR, Level: lv}
				if lv == "purego" {
					want.MR, want.NR = tc.mr, tc.nr
				}
				if p.Tile.MR != tc.mr || p.Tile.NR != tc.nr {
					t.Errorf("%s %d-byte: modelled tile %dx%d, want %dx%d", lv, tc.elem, p.Tile.MR, p.Tile.NR, tc.mr, tc.nr)
				}
				if p.HostTile != want {
					t.Errorf("%s %d-byte: host tile %+v, want %+v", lv, tc.elem, p.HostTile, want)
				}
				if frag := fmt.Sprintf("host tile: %dx%d (%s kernels)", want.MR, want.NR, lv); !strings.Contains(p.String(), frag) {
					t.Errorf("plan rendering lacks %q:\n%s", frag, p)
				}
			}
		})
	}
}
