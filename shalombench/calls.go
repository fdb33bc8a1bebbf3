package main

import (
	"runtime"
	"sync"

	"libshalom"
	"libshalom/internal/core"
	"libshalom/internal/kernels"
)

// runLib runs the op through the root API, as a user would.
func (o *gemmOp) runLib(lib *libshalom.Context) error {
	if o.f64 {
		return lib.DGEMM(o.mode, o.m, o.n, o.k, o.alpha, o.d.a, o.lda, o.d.b, o.ldb, o.beta, o.d.c, o.n)
	}
	return lib.SGEMM(o.mode, o.m, o.n, o.k, float32(o.alpha), o.s.a, o.lda, o.s.b, o.ldb, float32(o.beta), o.s.c, o.n)
}

// runCore runs the op through core.SGEMM/DGEMM directly.
func (o *gemmOp) runCore(cfg core.Config) error {
	if o.f64 {
		return core.DGEMM(cfg, o.mode, o.m, o.n, o.k, o.alpha, o.d.a, o.lda, o.d.b, o.ldb, o.beta, o.d.c, o.n)
	}
	return core.SGEMM(cfg, o.mode, o.m, o.n, o.k, float32(o.alpha), o.s.a, o.lda, o.s.b, o.ldb, float32(o.beta), o.s.c, o.n)
}

// runRef runs the op through the library's portable reference kernel.
func (o *gemmOp) runRef() {
	ta, tb := o.mode.TransA(), o.mode.TransB()
	if o.f64 {
		kernels.DGEMMRef(ta, tb, o.m, o.n, o.k, o.alpha, o.d.a, o.lda, o.d.b, o.ldb, o.beta, o.d.c, o.n)
		return
	}
	kernels.SGEMMRef(ta, tb, o.m, o.n, o.k, float32(o.alpha), o.s.a, o.lda, o.s.b, o.ldb, float32(o.beta), o.s.c, o.n)
}

// runIKJ runs the op through the simplest replacement: a naive ikj loop.
func (o *gemmOp) runIKJ() {
	ta, tb := o.mode.TransA(), o.mode.TransB()
	if o.f64 {
		ikj(ta, tb, o.m, o.n, o.k, o.alpha, o.d.a, o.lda, o.d.b, o.ldb, o.beta, o.d.c, o.n)
		return
	}
	ikj(ta, tb, o.m, o.n, o.k, float32(o.alpha), o.s.a, o.lda, o.s.b, o.ldb, float32(o.beta), o.s.c, o.n)
}

// ikj is the naive triple loop with the row of C innermost.
func ikj[T float](transA, transB bool, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	for i := 0; i < m; i++ {
		ci := c[i*ldc : i*ldc+n]
		if beta == 0 {
			clear(ci)
		} else if beta != 1 {
			for j := range ci {
				ci[j] *= beta
			}
		}
		for p := 0; p < k; p++ {
			var aip T
			if transA {
				aip = alpha * a[p*lda+i]
			} else {
				aip = alpha * a[i*lda+p]
			}
			if transB {
				for j := range ci {
					ci[j] += aip * b[j*ldb+p]
				}
				continue
			}
			for j, bv := range b[p*ldb : p*ldb+n] {
				ci[j] += aip * bv
			}
		}
	}
}

// exec runs one call of the stream through the root API.
func (c *call) exec(lib *libshalom.Context) error {
	if !c.batch {
		return c.ops[0].runLib(lib)
	}
	if c.ops[0].f64 {
		return lib.DGEMMBatch(c.ops[0].mode, c.db)
	}
	return lib.SGEMMBatch(c.ops[0].mode, c.sb)
}

func (c *call) restore() {
	for _, o := range c.ops {
		o.restore()
	}
}

// apiName is the root-API function the call goes through.
func (c *call) apiName() string {
	switch {
	case c.batch && c.ops[0].f64:
		return "libshalom.DGEMMBatch"
	case c.batch:
		return "libshalom.SGEMMBatch"
	case c.ops[0].f64:
		return "libshalom.DGEMM"
	}
	return "libshalom.SGEMM"
}

// verifyCall runs the call once and checks every entry against the float64
// reference, recording the hash of each verified result. Later executions
// of the call must reproduce those results bit for bit. It returns the
// number of entries that failed.
func verifyCall(lib *libshalom.Context, c *call) (failed int, firstErr error) {
	c.restore()
	refs := make([]refResult, len(c.ops))
	for i, o := range c.ops {
		refs[i] = o.referenceNow()
	}
	if err := c.exec(lib); err != nil {
		return len(c.ops), err
	}
	for i, o := range c.ops {
		if err := o.checkAgainst(refs[i]); err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		o.want, o.verified = o.resultHash(), true
	}
	return failed, firstErr
}

// mismatches counts the entries of an executed call whose result
// differs from the verified one.
func (c *call) mismatches() int {
	bad := 0
	for _, o := range c.ops {
		if !o.verified || o.resultHash() != o.want {
			bad++
		}
	}
	return bad
}

// parallelRows runs body over [0, m) split into contiguous row ranges, one
// per processor, and waits for all of them.
func parallelRows(m int, body func(lo, hi int)) {
	p := runtime.GOMAXPROCS(0)
	if p > m {
		p = m
	}
	if p <= 1 {
		body(0, m)
		return
	}
	var wg sync.WaitGroup
	for t := 0; t < p; t++ {
		lo, hi := t*m/p, (t+1)*m/p
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	wg.Wait()
}
