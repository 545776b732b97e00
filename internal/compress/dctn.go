package compress

import (
	"fmt"
	"math"

	"compaqt/internal/dct"
	"compaqt/internal/rle"
	"compaqt/internal/wave"
)

// DCT-N: the whole-waveform floating-point DCT variant (Table II).
// It achieves the best capacity reduction (Fig. 7b reports >100x on
// qft-4) but is impractical in hardware because N varies per waveform
// and can exceed a thousand samples (Section IV-C); COMPAQT uses it as
// the upper-bound reference.
//
// Since N varies, coefficients are quantized to 16 bits with one
// per-channel scale factor stored as side data (two words per channel).

const dctnSideWords = 2 // float32 scale factor per channel

// DCT-N has the same two stages as the windowed variants: a
// threshold-independent forward transform per channel, then
// threshold, quantize and RLE-encode. Unlike a window's, the quantizer
// scale depends on which coefficients survive the threshold.

func compressDCTN(f *wave.Fixed, opts Options) *Compressed {
	t := transformDCTN(f)
	defer t.release()
	return t.encode(opts.threshold())
}

// dctnTransform is DCT-N's transform stage: each channel's
// whole-waveform DCT coefficients, in pooled scratch.
type dctnTransform struct {
	f *wave.Fixed
	y [2]*[]float64 // I, Q
}

func transformDCTN(f *wave.Fixed) dctnTransform {
	t := dctnTransform{f: f}
	for i, samples := range [2][]int16{f.I, f.Q} {
		xf := floatPool.get(len(samples))
		for k, s := range samples {
			(*xf)[k] = float64(s)
		}
		// Whole-waveform transform: the plan-cached O(n log n) path —
		// the dominant term of a DCT-N cold compile.
		t.y[i] = floatPool.get(len(samples))
		dct.ForwardInto(*t.y[i], *xf)
		floatPool.put(xf)
	}
	return t
}

func (t *dctnTransform) release() {
	for _, y := range t.y {
		floatPool.put(y)
	}
}

// encode thresholds, quantizes and RLE-encodes both channels at the
// relative threshold thr.
func (t *dctnTransform) encode(thr float64) *Compressed {
	c := &Compressed{
		Name:       t.f.Name,
		Variant:    DCTN,
		SampleRate: t.f.SampleRate,
		Samples:    t.f.Samples(),
	}
	for i, ch := range [2]*Channel{&c.I, &c.Q} {
		y := *t.y[i]
		coeffs := int16Pool.get(len(y))
		ch.Scale = quantizeDCTN(*coeffs, y, thr)
		ch.Stream = rle.EncodeWindow(*coeffs)
		ch.WindowWords = []int{len(ch.Stream)}
		ch.BaselineWords = len(ch.Stream) + dctnSideWords
		int16Pool.put(coeffs)
	}
	return c
}

// quantizeDCTN zeroes the coefficients of y below the relative
// threshold thr and quantizes the survivors into coeffs with one scale
// factor, which it returns.
//
// The threshold sits at the same absolute coefficient scale the WS=16
// windowed variants use (orthonormal coefficients scale as sqrt(ws)
// times the stored integer value). A dropped DCT-N coefficient then
// carries the same energy as a dropped windowed one but spreads its
// error over the whole waveform, which is why DCT-N has both the best
// compression and the lowest MSE (Fig. 7).
func quantizeDCTN(coeffs []int16, y []float64, thr float64) float64 {
	t := thr * wave.FullScale * 4
	var maxAbs float64
	for _, v := range y {
		if a := math.Abs(v); a >= t && a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / wave.FullScale
	if scale == 0 {
		scale = 1
	}
	for k, v := range y {
		if math.Abs(v) < t {
			coeffs[k] = 0
		} else {
			coeffs[k] = clampCoeff(int32(math.Round(v / scale)))
		}
	}
	return scale
}

// inverseDCTN reconstructs a channel from its quantized coefficients
// and scale; yf and xf are scratch of len(coeffs).
func inverseDCTN(dst, coeffs []int16, scale float64, yf, xf []float64) {
	for k, q := range coeffs {
		yf[k] = float64(q) * scale
	}
	dct.InverseInto(xf, yf)
	for i, x := range xf {
		dst[i] = clamp16(int64(math.Round(x)))
	}
}

func decompressDCTN(c *Compressed) (*wave.Fixed, error) {
	out := &wave.Fixed{Name: c.Name, SampleRate: c.SampleRate}
	yf := floatPool.get(c.Samples)
	defer floatPool.put(yf)
	xf := floatPool.get(c.Samples)
	defer floatPool.put(xf)
	for chIdx, ch := range []*Channel{&c.I, &c.Q} {
		coeffs, err := rle.DecodeWindow(ch.Stream, c.Samples)
		if err != nil {
			return nil, fmt.Errorf("decompress %q DCT-N channel %d: %w", c.Name, chIdx, err)
		}
		samples := make([]int16, c.Samples)
		inverseDCTN(samples, coeffs, ch.Scale, *yf, *xf)
		if chIdx == 0 {
			out.I = samples
		} else {
			out.Q = samples
		}
	}
	return out, nil
}
