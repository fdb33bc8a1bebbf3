package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand/v2"

	"libshalom"
	"libshalom/internal/core"
	"libshalom/internal/workloads"
)

type float interface{ ~float32 | ~float64 }

// Workload constants. Shapes are stratified: every seed draws the same
// multiset of shapes, modes, precisions and β values and shuffles them, so
// the seed changes the operand values and the order but not the mix, and a
// rate measured on one seed compares with one measured on another.
const (
	// small-calls: a pool of calls cycled by one closed-loop caller. Batch
	// entries are a quarter of the pool's GEMMs.
	smallSingles  = 1536
	smallBatches  = 32
	smallBatchLen = 16 // entries per batch call
	smallMinDim   = 4
	smallMaxDim   = 32

	// serve: a pool of request bodies the open loop cycles through.
	servePoolSize  = 500
	serveTinyShare = 0.70 // f32, each dimension in [4, 16]
	serveCP2KShare = 0.20 // f64 at the CP2K sizes; the rest is f32 in [32, 64]
)

// irregularShapes is the irregular grid: short-wide C with a moderate K
// (M ∈ {16, 32, 64}, N ∈ {1024, 2048, 4096}, K ∈ {256, 512}) and the Fig 9
// transpose, tall-skinny C (M ∈ {1024, 2048}, N ∈ {16, 32}).
func irregularShapes() [][3]int {
	var out [][3]int
	for _, m := range []int{16, 32, 64} {
		for _, n := range []int{1024, 2048, 4096} {
			for _, k := range []int{256, 512} {
				out = append(out, [3]int{m, n, k})
			}
		}
	}
	for _, m := range []int{1024, 2048} {
		for _, n := range []int{16, 32} {
			for _, k := range []int{256, 512} {
				out = append(out, [3]int{m, n, k})
			}
		}
	}
	return out
}

// mats holds one GEMM's operands in their stored, row-major layout.
type mats[T float] struct {
	a, b, c []T
	// c0 is the C operand before the call; calls restore c from it. Nil when
	// the operands are regenerated from the op's stream instead.
	c0 []T
}

// gemmOp is one generated GEMM with its operands.
type gemmOp struct {
	f64         bool
	mode        libshalom.Mode
	m, n, k     int
	alpha, beta float64
	lda, ldb    int
	seed        uint64 // operand values come from PCG(seed, stream)
	stream      uint64

	s mats[float32]
	d mats[float64]

	verified bool
	want     uint64 // hash of the verified result
}

func (o *gemmOp) elemBytes() int {
	if o.f64 {
		return 8
	}
	return 4
}

func (o *gemmOp) flops() float64 { return 2 * float64(o.m) * float64(o.n) * float64(o.k) }

// bytes is the operand footprint the GEMM must touch: A, B, and C read and
// written.
func (o *gemmOp) bytes() float64 {
	return float64(o.elemBytes()) * float64(o.m*o.k+o.k*o.n+2*o.m*o.n)
}

// storedLens returns the element counts of A, B and C as stored.
func (o *gemmOp) storedLens() (la, lb, lc int) {
	return o.m * o.k, o.k * o.n, o.m * o.n
}

func newOp(f64 bool, mode libshalom.Mode, m, n, k int, alpha, beta float64, seed, stream uint64) *gemmOp {
	o := &gemmOp{f64: f64, mode: mode, m: m, n: n, k: k, alpha: alpha, beta: beta, seed: seed, stream: stream}
	o.lda, o.ldb = k, n
	if mode.TransA() {
		o.lda = m
	}
	if mode.TransB() {
		o.ldb = k
	}
	return o
}

// allocate gives the op private operands, filled from its stream, with a
// saved copy of C to restore before each call.
func (o *gemmOp) allocate() {
	la, lb, lc := o.storedLens()
	if o.f64 {
		o.d = mats[float64]{a: make([]float64, la), b: make([]float64, lb), c: make([]float64, lc)}
	} else {
		o.s = mats[float32]{a: make([]float32, la), b: make([]float32, lb), c: make([]float32, lc)}
	}
	o.fill()
	if o.f64 {
		o.d.c0 = append([]float64(nil), o.d.c...)
	} else {
		o.s.c0 = append([]float32(nil), o.s.c...)
	}
}

// borrow points the op's operands at shared arenas; fill must run before
// every call because other ops overwrite the arenas.
func (o *gemmOp) borrow(s *mats[float32], d *mats[float64]) {
	la, lb, lc := o.storedLens()
	if o.f64 {
		o.d = mats[float64]{a: d.a[:la], b: d.b[:lb], c: d.c[:lc]}
	} else {
		o.s = mats[float32]{a: s.a[:la], b: s.b[:lb], c: s.c[:lc]}
	}
}

// fill writes the op's operand values, uniform in [-1, 1), from its stream.
func (o *gemmOp) fill() {
	r := rand.New(rand.NewPCG(o.seed, o.stream))
	if o.f64 {
		fillUniform(r, o.d.a, 1)
		fillUniform(r, o.d.b, 1)
		fillUniform(r, o.d.c, 1)
	} else {
		fillUniform(r, o.s.a, 1)
		fillUniform(r, o.s.b, 1)
		fillUniform(r, o.s.c, 1)
	}
}

func fillUniform[T float](r *rand.Rand, v []T, scale float64) {
	for i := range v {
		v[i] = T(scale * (2*r.Float64() - 1))
	}
}

// restore puts C back to its pre-call value, so every execution of the op
// computes the same result.
func (o *gemmOp) restore() {
	switch {
	case o.f64 && o.d.c0 != nil:
		copy(o.d.c, o.d.c0)
	case !o.f64 && o.s.c0 != nil:
		copy(o.s.c, o.s.c0)
	default:
		o.fill()
	}
}

// resultHash is FNV-1a over the bits of C.
func (o *gemmOp) resultHash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	if o.f64 {
		for _, v := range o.d.c {
			h = (h ^ math.Float64bits(v)) * prime
		}
	} else {
		for _, v := range o.s.c {
			h = (h ^ uint64(math.Float32bits(v))) * prime
		}
	}
	return h
}

// referenceNow computes the float64 reference of the op from its current
// (pre-call) operands.
func (o *gemmOp) referenceNow() refResult {
	if o.f64 {
		return reference(o.mode.TransA(), o.mode.TransB(), o.m, o.n, o.k, o.alpha, o.d.a, o.lda, o.d.b, o.ldb, o.beta, o.d.c, o.n, 8)
	}
	return reference(o.mode.TransA(), o.mode.TransB(), o.m, o.n, o.k, o.alpha, widen(o.s.a), o.lda, widen(o.s.b), o.ldb, o.beta, widen(o.s.c), o.n, 4)
}

// checkAgainst checks the op's current (post-call) C against a reference.
func (o *gemmOp) checkAgainst(r refResult) error {
	if o.f64 {
		return r.check(o.d.c, o.n, o.m, o.n)
	}
	return r.check(widen(o.s.c), o.n, o.m, o.n)
}

// call is one API call of the small-calls stream: a single GEMM or a batch.
type call struct {
	ops   []*gemmOp
	batch bool
	sb    []libshalom.SBatchEntry
	db    []libshalom.DBatchEntry
}

func (c *call) gemms() int { return len(c.ops) }

func (c *call) flops() float64 {
	var f float64
	for _, o := range c.ops {
		f += o.flops()
	}
	return f
}

// cycle returns n values cycling through vals, shuffled.
func cycle[T any](r *rand.Rand, vals []T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = vals[i%len(vals)]
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func dimRange(lo, hi int) []int {
	var out []int
	for d := lo; d <= hi; d++ {
		out = append(out, d)
	}
	return out
}

func cp2kShapes() [][3]int {
	var out [][3]int
	for _, s := range workloads.CP2K() {
		out = append(out, [3]int{s.M, s.N, s.K})
	}
	return out
}

// genSmallCalls builds the small-calls pool: a quarter of the GEMMs are
// entries of batch calls of smallBatchLen, the rest single calls; a quarter
// of the calls of each kind are f64 at the CP2K sizes, the rest f32 with M,
// N, K each in [4, 32]; all four modes occur equally, β ∈ {0, 1} equally,
// α uniform in [0.5, 2).
func genSmallCalls(seed uint64) []*call {
	r := rand.New(rand.NewPCG(seed, 0x5ca11))
	type spec struct {
		batch, f64 bool
		mode       libshalom.Mode
	}
	modes := core.Modes()
	var specs []spec
	for i := 0; i < smallSingles; i++ {
		specs = append(specs, spec{f64: (i/4)%4 == 3, mode: modes[i%4]})
	}
	for i := 0; i < smallBatches; i++ {
		specs = append(specs, spec{batch: true, f64: (i/4)%4 == 3, mode: modes[i%4]})
	}
	n32, n64 := 0, 0
	for _, s := range specs {
		entries := 1
		if s.batch {
			entries = smallBatchLen
		}
		if s.f64 {
			n64 += entries
		} else {
			n32 += entries
		}
	}
	r.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	dims := dimRange(smallMinDim, smallMaxDim)
	ms, ns, ks := cycle(r, dims, n32), cycle(r, dims, n32), cycle(r, dims, n32)
	cp := cycle(r, cp2kShapes(), n64)
	betas := cycle(r, []float64{0, 1}, n32+n64)
	i32, i64, stream := 0, 0, uint64(0)
	calls := make([]*call, len(specs))
	for ci, s := range specs {
		c := &call{batch: s.batch}
		entries := 1
		if s.batch {
			entries = smallBatchLen
		}
		for e := 0; e < entries; e++ {
			var m, n, k int
			if s.f64 {
				m, n, k = cp[i64][0], cp[i64][1], cp[i64][2]
				i64++
			} else {
				m, n, k = ms[i32], ns[i32], ks[i32]
				i32++
			}
			alpha := 0.5 + 1.5*r.Float64()
			o := newOp(s.f64, s.mode, m, n, k, alpha, betas[stream], seed, stream)
			stream++
			o.allocate()
			c.ops = append(c.ops, o)
		}
		if s.batch {
			for _, o := range c.ops {
				if o.f64 {
					c.db = append(c.db, libshalom.DBatchEntry{M: o.m, N: o.n, K: o.k, Alpha: o.alpha, A: o.d.a, LDA: o.lda, B: o.d.b, LDB: o.ldb, Beta: o.beta, C: o.d.c, LDC: o.n})
				} else {
					c.sb = append(c.sb, libshalom.SBatchEntry{M: o.m, N: o.n, K: o.k, Alpha: float32(o.alpha), A: o.s.a, LDA: o.lda, B: o.s.b, LDB: o.ldb, Beta: float32(o.beta), C: o.s.c, LDC: o.n})
				}
			}
		}
		calls[ci] = c
	}
	return calls
}

// genIrregular builds the irregular grid: every irregular shape in f32 and
// f64, NN and NT, shuffled. Operands are regenerated from each op's stream
// into two shared arenas before every call.
func genIrregular(seed uint64) []*gemmOp {
	r := rand.New(rand.NewPCG(seed, 0x1229))
	var ops []*gemmOp
	for _, f64 := range []bool{false, true} {
		for _, mode := range []libshalom.Mode{libshalom.NN, libshalom.NT} {
			for _, s := range irregularShapes() {
				ops = append(ops, newOp(f64, mode, s[0], s[1], s[2], 0, 0, seed, 0))
			}
		}
	}
	betas := cycle(r, []float64{0, 1}, len(ops))
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	var s mats[float32]
	var d mats[float64]
	for i, o := range ops {
		o.alpha, o.beta, o.stream = 0.5+1.5*r.Float64(), betas[i], uint64(i)
		la, lb, lc := o.storedLens()
		if o.f64 {
			d.a, d.b, d.c = growTo(d.a, la), growTo(d.b, lb), growTo(d.c, lc)
		} else {
			s.a, s.b, s.c = growTo(s.a, la), growTo(s.b, lb), growTo(s.c, lc)
		}
	}
	for _, o := range ops {
		o.borrow(&s, &d)
	}
	return ops
}

func growTo[T float](v []T, n int) []T {
	if len(v) >= n {
		return v
	}
	return make([]T, n)
}

// genServePool builds the serve request pool: by count 70% f32 tiny (each
// dimension in [4, 16]), 20% f64 at the CP2K sizes and 10% f32 with each
// dimension in [32, 64], all four modes, β ∈ {0, 1}.
func genServePool(seed uint64) []*gemmOp {
	r := rand.New(rand.NewPCG(seed, 0x5e7e))
	nTiny := int(math.Round(servePoolSize * serveTinyShare))
	nCP := int(math.Round(servePoolSize * serveCP2KShare))
	nMid := servePoolSize - nTiny - nCP
	tiny, mid := dimRange(4, 16), dimRange(32, 64)
	tm, tn, tk := cycle(r, tiny, nTiny), cycle(r, tiny, nTiny), cycle(r, tiny, nTiny)
	mm, mn, mk := cycle(r, mid, nMid), cycle(r, mid, nMid), cycle(r, mid, nMid)
	cp := cycle(r, cp2kShapes(), nCP)
	modes := cycle(r, core.Modes(), servePoolSize)
	betas := cycle(r, []float64{0, 1}, servePoolSize)
	ops := make([]*gemmOp, 0, servePoolSize)
	for i := 0; i < servePoolSize; i++ {
		f64 := false
		var m, n, k int
		switch {
		case i < nTiny:
			m, n, k = tm[i], tn[i], tk[i]
		case i < nTiny+nCP:
			j := i - nTiny
			f64, m, n, k = true, cp[j][0], cp[j][1], cp[j][2]
		default:
			j := i - nTiny - nCP
			m, n, k = mm[j], mn[j], mk[j]
		}
		o := newOp(f64, modes[i], m, n, k, 0.5+1.5*r.Float64(), betas[i], seed, uint64(i))
		o.allocate()
		ops = append(ops, o)
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// inputDigest is SHA-256 over every generated shape, scalar and operand
// value, in order: the determinism tests compare it across seeds.
func inputDigest(ops []*gemmOp) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, o := range ops {
		f := uint64(0)
		if o.f64 {
			f = 1
		}
		put(f)
		put(uint64(o.mode))
		put(uint64(o.m))
		put(uint64(o.n))
		put(uint64(o.k))
		put(math.Float64bits(o.alpha))
		put(math.Float64bits(o.beta))
		o.restore()
		if o.f64 {
			for _, v := range [][]float64{o.d.a, o.d.b, o.d.c} {
				for _, x := range v {
					put(math.Float64bits(x))
				}
			}
		} else {
			for _, v := range [][]float32{o.s.a, o.s.b, o.s.c} {
				for _, x := range v {
					put(uint64(math.Float32bits(x)))
				}
			}
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
