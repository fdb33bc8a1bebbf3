// Package tuner implements the paper's §10 future-work direction: opening
// the kernel parameters to a search instead of fixing the closed-form
// analytic optimum. The search space is every register tile feasible under
// Eq. 1, evaluated through the instruction-level scoreboard model on the
// target platform; the result can be compared against the Eq. 1–2 answer
// (tests assert the analytic tile is at or within noise of the searched
// optimum on every modeled platform, which is the paper's implicit claim).
package tuner

import (
	"cmp"
	"slices"

	"libshalom/internal/analytic"
	"libshalom/internal/isa"
	"libshalom/internal/kernels"
	"libshalom/internal/platform"
	"libshalom/internal/uarch"
)

// Candidate is one evaluated register tile.
type Candidate struct {
	MR, NR int
	// GFLOPS is the modeled steady-state throughput of the main micro-
	// kernel on the target platform with L1-resident operands.
	GFLOPS float64
	// CMR is the analytic objective of Eq. 2 for comparison.
	CMR float64
}

// Result is a completed search.
type Result struct {
	Best       Candidate
	Analytic   Candidate // the Eq. 1–2 tile evaluated the same way
	Candidates []Candidate
}

// TileGFLOPS is the tile scorer shared with the online autotuner: the
// modeled steady-state GFLOPS of the pipelined main kernel with an mr×nr
// tile and L1-resident operands; 0 for a tile infeasible under Eq. 1.
func TileGFLOPS(p *platform.Platform, elemBytes, mr, nr int) float64 {
	lanes := 16 / elemBytes
	if !analytic.Feasible(mr, nr, lanes, analytic.RegisterBudget) {
		return 0
	}
	build := func(kc int) *isa.Program {
		if kc%lanes != 0 {
			kc += lanes - kc%lanes
		}
		return kernels.BuildMain(kernels.MainSpec{
			Elem: elemBytes, MR: mr, NR: nr, KC: kc,
			LDA: kc, LDB: nr, LDC: nr, Schedule: kernels.Pipelined,
		})
	}
	cpi := uarch.SteadyStateCPI(build, uarch.FromPlatform(p), 32, 64) // cycles per K step
	return 2 * float64(mr) * float64(nr) / cpi * p.FreqGHz
}

// Compare is the tile ordering shared with the online autotuner, best
// first: higher GFLOPS, then higher CMR (the analytic objective as the
// secondary criterion, as §5.2 motivates), then wider NR, then taller MR.
func Compare(a, b Candidate) int {
	return cmp.Or(cmp.Compare(b.GFLOPS, a.GFLOPS), cmp.Compare(b.CMR, a.CMR), cmp.Compare(b.NR, a.NR), cmp.Compare(b.MR, a.MR))
}

// SearchTile evaluates every feasible register tile for the platform and
// element size and returns the candidates sorted by Compare.
func SearchTile(p *platform.Platform, elemBytes int) Result {
	lanes := 16 / elemBytes
	var r Result
	for mr := 1; mr <= 16; mr++ {
		for nr := lanes; nr <= 16*lanes; nr += lanes {
			if !analytic.Feasible(mr, nr, lanes, analytic.RegisterBudget) {
				continue
			}
			r.Candidates = append(r.Candidates, Candidate{
				MR: mr, NR: nr, GFLOPS: TileGFLOPS(p, elemBytes, mr, nr), CMR: analytic.CMR(mr, nr),
			})
		}
	}
	slices.SortFunc(r.Candidates, Compare)
	r.Best = r.Candidates[0]

	at := analytic.SolveForElem(elemBytes)
	r.Analytic = Candidate{MR: at.MR, NR: at.NR, GFLOPS: TileGFLOPS(p, elemBytes, at.MR, at.NR), CMR: at.CMR}
	return r
}
