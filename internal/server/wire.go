// Package server is LibShalom's GEMM serving subsystem: an HTTP front door
// that accepts small and irregular GEMM requests, classifies each by its
// telemetry shape class, and coalesces concurrent requests of one
// (precision, mode, shape class) into a single batch dispatch on the shared
// Context — so N concurrent 16×16 GEMMs cost one pool dispatch instead of
// N. This is the paper's premise applied to serving: when small problems
// arrive in huge numbers, per-call overhead dominates, and the fix is to
// amortize it across many problems (§7.4's batch parallelization model, the
// CP2K pattern), here at the request level rather than the call level.
//
// Around the coalescing core the server provides bounded admission with
// load shedding (HTTP 429 + Retry-After), per-request deadlines that drop
// expired work before it is computed, graceful drain (stop accepting, flush
// resident batches, answer every admitted request), and the library's
// observability surface (/metrics, /healthz, /snapshot) extended with
// serving-layer counters.
package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"libshalom"
)

// Wire format of one GEMM request (POST /v1/gemm):
//
//	JSON header, terminated by '\n', at most MaxHeaderBytes long
//	little-endian binary payload: op(A) as stored, op(B) as stored,
//	then C — present if and only if beta ≠ 0
//
// Operands are packed row-major exactly as the GEMM call stores them: a
// TransA request ships A as the K×M matrix it is stored as, and leading
// dimensions are implied (the stored row length). The response mirrors the
// shape: a JSON header line followed by the m×n C payload.

// MaxHeaderBytes bounds the JSON header line of a request.
const MaxHeaderBytes = 4096

// Default decode limits; Config overrides them.
const (
	DefaultMaxDim          = 4096
	DefaultMaxPayloadBytes = 64 << 20
)

// Header is the JSON request header. Alpha and Beta are float64 on the wire
// for both precisions; f32 requests narrow them.
type Header struct {
	Precision string  `json:"precision"` // "f32" or "f64"
	Mode      string  `json:"mode"`      // "NN", "NT", "TN", "TT"
	M         int     `json:"m"`
	N         int     `json:"n"`
	K         int     `json:"k"`
	Alpha     float64 `json:"alpha"`
	Beta      float64 `json:"beta"`
	// TimeoutMS is the request deadline in milliseconds from arrival; 0
	// selects the server's default, negative is rejected. A request whose
	// deadline passes before its batch flushes is dropped unrun (HTTP 504).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ResponseHeader is the JSON line preceding the C payload of a 200 response.
type ResponseHeader struct {
	Status string `json:"status"` // "ok"
	// BatchSize is how many requests shared this request's flush — the
	// coalescing win observable per response (sizes > 1 amortized dispatch).
	BatchSize int `json:"batch_size"`
	// QueueWaitUS is how long the request sat in the coalescing queue.
	QueueWaitUS int64 `json:"queue_wait_us"`
}

// Request is one decoded GEMM request.
type Request struct {
	F64     bool
	Mode    libshalom.Mode
	M, N, K int
	Alpha   float64
	Beta    float64
	Timeout time.Duration // 0: none specified

	// Operands; the precision selects which triple is populated. Leading
	// dimensions are implied packed (stored row length).
	A32, B32, C32 []float32
	A64, B64, C64 []float64
}

// Flops returns the request's 2·M·N·K operation count.
func (r *Request) Flops() float64 { return 2 * float64(r.M) * float64(r.N) * float64(r.K) }

// storedDims returns the stored row-major dimensions of the operands for a
// mode: op(A) is m×k but a TransA request stores A as k×m, and so on.
func storedDims(mode libshalom.Mode, m, n, k int) (aRows, aCols, bRows, bCols int) {
	aRows, aCols = m, k
	if mode.TransA() {
		aRows, aCols = k, m
	}
	bRows, bCols = k, n
	if mode.TransB() {
		bRows, bCols = n, k
	}
	return
}

// ReadHeader reads and checks the JSON header line of one wire request:
// the checks that need no serving limits — a known precision and mode
// (returned parsed, and canonical in h.Mode), positive dimensions, and a
// non-negative timeout. br is positioned at the payload. Errors carry no
// package prefix; DecodeRequest and the router add their own.
func ReadHeader(r io.Reader) (h Header, mode libshalom.Mode, br *bufio.Reader, err error) {
	br = bufio.NewReaderSize(r, MaxHeaderBytes)
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return h, mode, nil, fmt.Errorf("request header exceeds %d bytes", MaxHeaderBytes)
	}
	if err != nil {
		return h, mode, nil, fmt.Errorf("reading request header: %w", err)
	}
	if err := json.Unmarshal(line, &h); err != nil {
		return h, mode, nil, fmt.Errorf("malformed request header: %w", err)
	}
	if h.Precision != "f32" && h.Precision != "f64" {
		return h, mode, nil, fmt.Errorf("unknown precision %q (want f32 or f64)", h.Precision)
	}
	if mode, err = libshalom.ParseMode(h.Mode); err != nil {
		return h, mode, nil, err
	}
	h.Mode = mode.String()
	if h.M <= 0 || h.N <= 0 || h.K <= 0 {
		return h, mode, nil, fmt.Errorf("non-positive dimensions %dx%dx%d", h.M, h.N, h.K)
	}
	if h.TimeoutMS < 0 {
		return h, mode, nil, fmt.Errorf("negative timeout_ms %d", h.TimeoutMS)
	}
	return h, mode, br, nil
}

// DecodeRequest reads and validates one request from r. Every validation —
// header shape, dimension bounds, finite scalars, exact payload length —
// happens before the corresponding allocation, so a hostile or truncated
// request is rejected without panicking and without allocating more than
// the declared (and bounded) payload. maxDim caps each of m, n, k; maxPayload
// caps the total operand bytes; zero values select the defaults.
func DecodeRequest(r io.Reader, maxDim int, maxPayload int64) (*Request, error) {
	if maxDim <= 0 {
		maxDim = DefaultMaxDim
	}
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayloadBytes
	}
	h, mode, br, err := ReadHeader(r)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	f64 := h.Precision == "f64"
	if h.M > maxDim || h.N > maxDim || h.K > maxDim {
		return nil, fmt.Errorf("server: dimensions %dx%dx%d exceed the per-dimension limit %d", h.M, h.N, h.K, maxDim)
	}
	if badScalar(h.Alpha) || badScalar(h.Beta) {
		return nil, fmt.Errorf("server: non-finite alpha/beta (%v, %v)", h.Alpha, h.Beta)
	}
	elem := int64(4)
	if f64 {
		elem = 8
	}
	aRows, aCols, bRows, bCols := storedDims(mode, h.M, h.N, h.K)
	nA := int64(aRows) * int64(aCols)
	nB := int64(bRows) * int64(bCols)
	nC := int64(h.M) * int64(h.N)
	payload := nA + nB
	if h.Beta != 0 {
		payload += nC
	}
	if payload*elem > maxPayload {
		return nil, fmt.Errorf("server: payload %d bytes exceeds the limit %d", payload*elem, maxPayload)
	}
	req := &Request{
		F64: f64, Mode: mode, M: h.M, N: h.N, K: h.K,
		Alpha: h.Alpha, Beta: h.Beta,
		Timeout: time.Duration(h.TimeoutMS) * time.Millisecond,
	}
	if f64 {
		if req.A64, err = readF64s(br, int(nA)); err != nil {
			return nil, fmt.Errorf("server: A payload: %w", err)
		}
		if req.B64, err = readF64s(br, int(nB)); err != nil {
			return nil, fmt.Errorf("server: B payload: %w", err)
		}
		if h.Beta != 0 {
			if req.C64, err = readF64s(br, int(nC)); err != nil {
				return nil, fmt.Errorf("server: C payload: %w", err)
			}
		} else {
			req.C64 = make([]float64, nC)
		}
	} else {
		if req.A32, err = readF32s(br, int(nA)); err != nil {
			return nil, fmt.Errorf("server: A payload: %w", err)
		}
		if req.B32, err = readF32s(br, int(nB)); err != nil {
			return nil, fmt.Errorf("server: B payload: %w", err)
		}
		if h.Beta != 0 {
			if req.C32, err = readF32s(br, int(nC)); err != nil {
				return nil, fmt.Errorf("server: C payload: %w", err)
			}
		} else {
			req.C32 = make([]float32, nC)
		}
	}
	// The payload must end exactly where the dimensions say it does: a
	// trailing byte means the header and payload disagree.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("server: payload longer than the header's dimensions imply")
	}
	return req, nil
}

// badScalar rejects NaN and ±Inf wire scalars: a non-finite alpha/beta
// poisons every element of C, and no legitimate client sends one.
func badScalar(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

func readF32s(r io.Reader, n int) ([]float32, error) {
	buf := make([]byte, 4*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("payload shorter than the header's dimensions imply: %w", err)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out, nil
}

func readF64s(r io.Reader, n int) ([]float64, error) {
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("payload shorter than the header's dimensions imply: %w", err)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

// EncodeRequest writes the wire form of a request: the header line followed
// by the operand payload. The client side of DecodeRequest, used by
// shalom-load and the tests.
func EncodeRequest(w io.Writer, h Header, a32, b32, c32 []float32, a64, b64, c64 []float64) error {
	line, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		return err
	}
	if h.Precision == "f64" {
		if err := writeF64s(w, a64); err != nil {
			return err
		}
		if err := writeF64s(w, b64); err != nil {
			return err
		}
		if h.Beta != 0 {
			return writeF64s(w, c64)
		}
		return nil
	}
	if err := writeF32s(w, a32); err != nil {
		return err
	}
	if err := writeF32s(w, b32); err != nil {
		return err
	}
	if h.Beta != 0 {
		return writeF32s(w, c32)
	}
	return nil
}

func writeF32s(w io.Writer, v []float32) error {
	buf := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
	}
	_, err := w.Write(buf)
	return err
}

func writeF64s(w io.Writer, v []float64) error {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	_, err := w.Write(buf)
	return err
}

// DecodeResponse reads a 200 response: the header line and the m×n C
// payload in the request's precision.
func DecodeResponse(r io.Reader, m, n int, f64 bool) (ResponseHeader, []float32, []float64, error) {
	var rh ResponseHeader
	br := bufio.NewReaderSize(r, MaxHeaderBytes)
	line, err := br.ReadSlice('\n')
	if err != nil {
		return rh, nil, nil, fmt.Errorf("server: reading response header: %w", err)
	}
	if err := json.Unmarshal(line, &rh); err != nil {
		return rh, nil, nil, fmt.Errorf("server: malformed response header: %w", err)
	}
	if f64 {
		c, err := readF64s(br, m*n)
		return rh, nil, c, err
	}
	c, err := readF32s(br, m*n)
	return rh, c, nil, err
}
