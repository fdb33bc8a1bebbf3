// Package hotleaf is a staticlint fixture for assembly leaves: bodyless
// functions (hotleaf.s holds no code; the fixture is only type-checked)
// called from hot paths, trusted only through //shalom:asmleaf.
package hotleaf

//shalom:asmleaf noalloc,nolock,noblock,notime
//go:noescape
func trusted(dst *float64, n int)

func unlisted(dst *float64, n int)

//shalom:asmleaf noalloc
//go:noescape
func allocFree(dst *float64, n int)

//shalom:hotpath noalloc,nolock,noblock,notime
func CallsTrusted(dst []float64) {
	trusted(&dst[0], len(dst)) // a listed leaf: no finding
}

//shalom:hotpath noalloc
func CallsUnlisted(dst []float64) {
	unlisted(&dst[0], len(dst)) // line 23: bodyless and not listed
}

//shalom:hotpath noalloc,nolock
func CallsPartial(dst []float64) {
	allocFree(&dst[0], len(dst)) // line 28: the leaf does not vouch for nolock
}

//shalom:asmleaf noalloc
func escapes(dst *float64, n int) // line 32: takes a pointer, not //go:noescape

//shalom:asmleaf noalloc
func hasBody(n int) int { return n } // line 35: a Go body is proved, not trusted
