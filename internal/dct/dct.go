// Package dct implements the transforms at the heart of COMPAQT
// (Section IV-C of the paper):
//
//   - the orthonormal floating-point DCT-II and its inverse (DCT-III),
//     used for the DCT-N and DCT-W compression variants (Eq. 1-2), and
//   - the HEVC-style integer DCT/IDCT for 4/8/16/32-point windows,
//     used for the int-DCT-W variant that the hardware decompression
//     engine implements with shift-and-add networks only.
//
// Only the transform mathematics lives here; thresholding, RLE, and the
// memory layout live in internal/compress.
//
// Performance notes. The four integer transform matrices are built once
// at package init as flattened row-major tables, so the per-window
// kernels (IntForwardInto, IntInverseInto) never allocate. The forward
// kernel evaluates the matrix product as HEVC's partial butterfly
// (exact int64 arithmetic, bit-identical to the dense product). The float
// DCT is served by cached Plans (see plan.go): an O(n^2) cached-cosine
// table for short windows and an O(n log n) FFT-based evaluation
// (Makhoul's construction, Bluestein for non-power-of-two lengths) for
// whole-waveform transforms. NaiveForward/NaiveInverse keep the
// textbook double loops as the reference oracle the fast paths are
// tested against.
package dct

import (
	"fmt"
	"math"
)

// Forward computes the orthonormal DCT-II of x (paper Eq. 1 with the
// standard sqrt(2) normalization that makes the pair exactly
// orthonormal):
//
//	y[k] = a(k) * sum_n x[n] cos(pi (2n+1) k / 2N)
//
// with a(0)=sqrt(1/N) and a(k)=sqrt(2/N) otherwise. It is evaluated
// through the cached Plan for len(x); use ForwardInto to avoid the
// result allocation.
func Forward(x []float64) []float64 {
	y := make([]float64, len(x))
	ForwardInto(y, x)
	return y
}

// Inverse computes the orthonormal DCT-III, the exact inverse of
// Forward (paper Eq. 2), through the cached Plan for len(y).
func Inverse(y []float64) []float64 {
	x := make([]float64, len(y))
	InverseInto(x, y)
	return x
}

// ForwardInto computes the orthonormal DCT-II of x into dst, which must
// have len(x). It performs no allocations beyond (pooled, amortized)
// plan scratch.
func ForwardInto(dst, x []float64) {
	if len(x) == 0 {
		return
	}
	PlanFor(len(x)).ForwardInto(dst, x)
}

// InverseInto computes the orthonormal DCT-III of y into dst, which
// must have len(y).
func InverseInto(dst, y []float64) {
	if len(y) == 0 {
		return
	}
	PlanFor(len(y)).InverseInto(dst, y)
}

// NaiveForward is the textbook O(n^2) DCT-II evaluation recomputing the
// cosines inline. It is the reference oracle for the Plan-based fast
// paths and is not used on any compile path.
func NaiveForward(x []float64) []float64 {
	n := len(x)
	y := make([]float64, n)
	if n == 0 {
		return y
	}
	a0 := math.Sqrt(1 / float64(n))
	ak := math.Sqrt(2 / float64(n))
	for k := 0; k < n; k++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += x[i] * math.Cos(math.Pi*float64(2*i+1)*float64(k)/float64(2*n))
		}
		if k == 0 {
			y[k] = a0 * sum
		} else {
			y[k] = ak * sum
		}
	}
	return y
}

// NaiveInverse is the textbook O(n^2) DCT-III evaluation, the reference
// oracle for the fast inverse.
func NaiveInverse(y []float64) []float64 {
	n := len(y)
	x := make([]float64, n)
	if n == 0 {
		return x
	}
	a0 := math.Sqrt(1 / float64(n))
	ak := math.Sqrt(2 / float64(n))
	for i := 0; i < n; i++ {
		sum := a0 * y[0]
		for k := 1; k < n; k++ {
			sum += ak * y[k] * math.Cos(math.Pi*float64(2*i+1)*float64(k)/float64(2*n))
		}
		x[i] = sum
	}
	return x
}

// ValidWindow reports whether ws is a window size supported by the
// integer transform (the HEVC core transform sizes).
func ValidWindow(ws int) bool {
	switch ws {
	case 4, 8, 16, 32:
		return true
	}
	return false
}

// hevcOdd holds the HEVC 32-point core-transform coefficient table
// c[j] ~ round(64*sqrt(2)*cos(j*pi/64)) with the standard's hand-tuned
// adjustments (e.g. c[8]=83, not 84). Index 0 is the DC value 64 and
// index 32 is 0. Every entry of every HEVC transform matrix is +-c[j]
// for some j, selected by folding the DCT argument into the first
// quadrant (see matrix generation below).
var hevcOdd = [33]int32{
	64, 90, 90, 90, 89, 88, 87, 85, 83, 82, 80, 78, 75, 73, 70, 67,
	64, 61, 57, 54, 50, 46, 43, 38, 36, 31, 25, 22, 18, 13, 9, 4,
	0,
}

// coeff returns the signed HEVC matrix entry for DCT argument index
// m = (2n+1)k, using the quarter-wave symmetry of cos(m*pi/64)
// (period 128, antisymmetric about 64, symmetric about 0).
func coeff(m int) int32 {
	m %= 128
	if m < 0 {
		m += 128
	}
	switch {
	case m <= 32:
		return hevcOdd[m]
	case m <= 64:
		return -hevcOdd[64-m]
	case m <= 96:
		return -hevcOdd[m-64]
	default:
		return hevcOdd[128-m]
	}
}

// flatMatrices holds the four integer transform matrices, built once at
// package init, flattened row-major (entry [k][n] at index k*ws+n) for
// cache locality in the per-window kernels. Indexed by log2(ws)-2.
var flatMatrices [4][]int32

func init() {
	for idx, ws := range [4]int{4, 8, 16, 32} {
		stride := 32 / ws
		m := make([]int32, ws*ws)
		for k := 0; k < ws; k++ {
			for col := 0; col < ws; col++ {
				m[k*ws+col] = coeff((2*col + 1) * k * stride)
			}
		}
		flatMatrices[idx] = m
	}
	for j := range oddRows4 {
		copyOddRow(oddRows4[j][:], 4, j)
	}
	for j := range oddRows8 {
		copyOddRow(oddRows8[j][:], 8, j)
	}
	for j := range oddRows16 {
		copyOddRow(oddRows16[j][:], 16, j)
	}
	for j := range oddRows32 {
		copyOddRow(oddRows32[j][:], 32, j)
	}
}

// MatrixFlat returns the N-point HEVC integer transform matrix (N = 4,
// 8, 16 or 32) flattened row-major: entry [k][n] is at index k*N+n.
// The returned slice is the shared package-level table; callers must
// treat it as read-only.
func MatrixFlat(n int) []int32 {
	if !ValidWindow(n) {
		panic(fmt.Sprintf("dct: unsupported window size %d", n))
	}
	return flatMatrices[log2(n)-2]
}

// Matrix returns the N-point HEVC integer transform matrix (N = 4, 8,
// 16 or 32) as freshly allocated rows. Row k of the N-point matrix is
// row k*(32/N) of the 32-point matrix truncated to N columns, which is
// how the standard derives the smaller transforms. Matrix is a setup-
// time convenience (hardware models, tests); the per-window kernels use
// the shared flattened table via MatrixFlat.
func Matrix(n int) [][]int32 {
	flat := MatrixFlat(n)
	m := make([][]int32, n)
	for k := 0; k < n; k++ {
		m[k] = append([]int32(nil), flat[k*n:(k+1)*n]...)
	}
	return m
}

// Coefficients returns the distinct positive coefficient magnitudes of
// the N-point matrix (used to build the shift-add hardware model).
func Coefficients(n int) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, v := range MatrixFlat(n) {
		if v < 0 {
			v = -v
		}
		if v != 0 && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Shift split for the integer transform pair. The HEVC rows have squared
// norm N*64^2 = 2^(12+log2(N)), so a forward shift sf and inverse shift
// si with sf+si = 12+log2(N) make the pair reconstruct at unit scale.
// We put the window-size dependence entirely on the software (forward)
// side so the hardware IDCT uses a constant shift of 6 regardless of
// window size -- this is the "input waveform scaled by S = 2^(6+log2N/2)"
// trick of Section IV-C, expressed in integer arithmetic.
const InverseShift = 6

// ForwardShift returns the software-side shift for window size n.
func ForwardShift(n int) uint {
	return uint(6 + log2(n))
}

func log2(n int) int {
	l := 0
	for v := n; v > 1; v >>= 1 {
		l++
	}
	return l
}

// IntForward computes the integer DCT of one window of Q1.15 samples:
//
//	y[k] = round( sum_n M[k][n]*x[n] / 2^ForwardShift )
//
// The result fits int16 for any input in [-32767, 32767] and is what the
// compiler stores in the compressed waveform memory. This side runs in
// software (Section IV-A: compression is free, decompression is not).
func IntForward(x []int16, ws int) []int32 {
	y := make([]int32, ws)
	IntForwardInto(y, x, ws)
	return y
}

// IntForwardInto is IntForward writing into dst (len ws). It performs
// no allocations.
//
// The product is evaluated as HEVC's partial butterfly rather than a
// dense matrix-vector product. Row k of the N-point matrix is even or
// odd about the window centre as k is even or odd, so with
// E[n] = x[n]+x[N-1-n] and O[n] = x[n]-x[N-1-n] the odd rows are N/2-
// term dot products with O, and the even rows are exactly the N/2-point
// transform of E (row 2k of the N-point matrix, over its first half,
// is row k of the N/2-point one). Recursing down to N = 4 takes ws=16
// from 256 multiplies to 86. Every partial sum is an exact int64, so
// the sum reaching the single rounding shift is the dense sum itself
// and the output is bit-identical to the matrix definition.
func IntForwardInto(dst []int32, x []int16, ws int) {
	if !ValidWindow(ws) {
		panic(fmt.Sprintf("dct: unsupported window size %d", ws))
	}
	if len(x) != ws {
		panic(fmt.Sprintf("dct: IntForward window %d, got %d samples", ws, len(x)))
	}
	if len(dst) != ws {
		panic(fmt.Sprintf("dct: IntForwardInto dst length %d, want %d", len(dst), ws))
	}
	var in, acc [32]int64
	for i, s := range x {
		in[i] = int64(s)
	}
	switch ws {
	case 4:
		butterfly4((*[4]int64)(acc[:4]), (*[4]int64)(in[:4]))
	case 8:
		butterfly8((*[8]int64)(acc[:8]), (*[8]int64)(in[:8]))
	case 16:
		butterfly16((*[16]int64)(acc[:16]), (*[16]int64)(in[:16]))
	case 32:
		butterfly32((*[32]int64)(acc[:32]), (*[32]int64)(in[:32]))
	}
	sf := ForwardShift(ws)
	rnd := int64(1) << (sf - 1)
	for k, a := range acc[:ws] {
		if a >= 0 {
			dst[k] = int32((a + rnd) >> sf)
		} else {
			dst[k] = int32(-((-a + rnd) >> sf))
		}
	}
}

// oddRows4..oddRows32 hold the odd rows of each integer matrix over its
// first half: oddRowsN[j][n] = M_N[2j+1][n], n < N/2. Built at init
// from the flattened matrices, so the butterfly and the dense
// definition read the same constants.
var (
	oddRows4  [2][2]int64
	oddRows8  [4][4]int64
	oddRows16 [8][8]int64
	oddRows32 [16][16]int64
)

func copyOddRow(dst []int64, ws, j int) {
	row := MatrixFlat(ws)[(2*j+1)*ws:]
	for n := range dst {
		dst[n] = int64(row[n])
	}
}

// butterfly4 writes the unshifted 4-point integer transform of x to
// y. Rows 0 and 2 of the HEVC 4-point matrix are +-64 throughout.
func butterfly4(y, x *[4]int64) {
	e0, e1 := x[0]+x[3], x[1]+x[2]
	o0, o1 := x[0]-x[3], x[1]-x[2]
	y[0] = 64 * (e0 + e1)
	y[2] = 64 * (e0 - e1)
	y[1] = oddRows4[0][0]*o0 + oddRows4[0][1]*o1
	y[3] = oddRows4[1][0]*o0 + oddRows4[1][1]*o1
}

func butterfly8(y, x *[8]int64) {
	var e, o, ye [4]int64
	for n := range e {
		e[n], o[n] = x[n]+x[7-n], x[n]-x[7-n]
	}
	butterfly4(&ye, &e)
	for k := range ye {
		r := &oddRows8[k]
		y[2*k] = ye[k]
		y[2*k+1] = r[0]*o[0] + r[1]*o[1] + r[2]*o[2] + r[3]*o[3]
	}
}

func butterfly16(y, x *[16]int64) {
	var e, o, ye [8]int64
	for n := range e {
		e[n], o[n] = x[n]+x[15-n], x[n]-x[15-n]
	}
	butterfly8(&ye, &e)
	for k := range ye {
		r := &oddRows16[k]
		y[2*k] = ye[k]
		y[2*k+1] = r[0]*o[0] + r[1]*o[1] + r[2]*o[2] + r[3]*o[3] +
			r[4]*o[4] + r[5]*o[5] + r[6]*o[6] + r[7]*o[7]
	}
}

func butterfly32(y, x *[32]int64) {
	var e, o, ye [16]int64
	for n := range e {
		e[n], o[n] = x[n]+x[31-n], x[n]-x[31-n]
	}
	butterfly16(&ye, &e)
	for k := range ye {
		r := &oddRows32[k]
		y[2*k] = ye[k]
		y[2*k+1] = r[0]*o[0] + r[1]*o[1] + r[2]*o[2] + r[3]*o[3] +
			r[4]*o[4] + r[5]*o[5] + r[6]*o[6] + r[7]*o[7] +
			r[8]*o[8] + r[9]*o[9] + r[10]*o[10] + r[11]*o[11] +
			r[12]*o[12] + r[13]*o[13] + r[14]*o[14] + r[15]*o[15]
	}
}

// IntInverse computes the integer IDCT:
//
//	x[n] = clamp( round( sum_k M[k][n]*y[k] / 2^InverseShift ) )
//
// This is the operation the hardware decompression engine performs; the
// engine's shift-add emulation in internal/engine produces bit-identical
// results (it is checked against this function in tests).
func IntInverse(y []int32, ws int) []int16 {
	x := make([]int16, ws)
	IntInverseInto(x, y, ws)
	return x
}

// IntInverseInto is IntInverse writing into dst (len ws). It performs
// no allocations. Rows with a zero coefficient are skipped whole, the
// same gating the hardware applies to its adder columns.
func IntInverseInto(dst []int16, y []int32, ws int) {
	m := MatrixFlat(ws)
	if len(y) != ws {
		panic(fmt.Sprintf("dct: IntInverse window %d, got %d samples", ws, len(y)))
	}
	if len(dst) != ws {
		panic(fmt.Sprintf("dct: IntInverseInto dst length %d, want %d", len(dst), ws))
	}
	const rnd = int64(1) << (InverseShift - 1)
	// Accumulate row-major over the nonzero coefficients: thresholded
	// windows are sparse, so skipping a zero y[k] skips a whole matrix
	// row. int64 addition is exact, so the reordering relative to the
	// column-major definition is bit-identical.
	var accBuf [32]int64
	acc := accBuf[:ws]
	for i := range acc {
		acc[i] = 0
	}
	for k := 0; k < ws; k++ {
		c := int64(y[k])
		if c == 0 {
			continue
		}
		row := m[k*ws : (k+1)*ws]
		for n := 0; n < ws; n++ {
			acc[n] += int64(row[n]) * c
		}
	}
	for n := 0; n < ws; n++ {
		a := acc[n]
		var v int64
		if a >= 0 {
			v = (a + rnd) >> InverseShift
		} else {
			v = -((-a + rnd) >> InverseShift)
		}
		dst[n] = clamp16(v)
	}
}

func clamp16(v int64) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32767 {
		// -32768 is reserved for RLE codeword signatures.
		return -32767
	}
	return int16(v)
}
