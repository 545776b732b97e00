package compress

import (
	"fmt"

	"compaqt/internal/dct"
	"compaqt/internal/rle"
	"compaqt/internal/wave"
)

// Overlapping-window compression — the extension the paper proposes to
// remove WS=8's window-boundary distortion ("These distortions can be
// reduced by using overlapping windows", Section VII-B).
//
// Windows advance by ws-overlap samples; on decompression the overlap
// region crossfades linearly between the two reconstructions. The
// overlap is fixed at 3 samples so the blend weights are k/4 —
// realizable with shifts and adds, keeping the decompression engine
// multiplierless. The cost is ws/(ws-3) more windows (1.6x for WS=8,
// 1.23x for WS=16), which is why the paper treats it as an optional
// fidelity knob rather than the default.

// OverlapLen is the fixed window overlap in samples.
const OverlapLen = 3

// overlapStride returns the window advance for a window size.
func overlapStride(ws int) int { return ws - OverlapLen }

// CompressOverlapped compresses with int-DCT-W over overlapping
// windows. Adaptive repeats are not supported on this path (the blend
// would break the hold-last semantics).
func CompressOverlapped(f *wave.Fixed, ws int, threshold float64) (*Compressed, error) {
	if !dct.ValidWindow(ws) {
		return nil, fmt.Errorf("compress: invalid window size %d", ws)
	}
	if ws <= OverlapLen {
		return nil, fmt.Errorf("compress: window %d too small for overlap %d", ws, OverlapLen)
	}
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	thr := int32(threshold * wave.FullScale)
	c := &Compressed{
		Name:       f.Name,
		Variant:    IntDCTW,
		WindowSize: ws,
		SampleRate: f.SampleRate,
		Samples:    f.Samples(),
		Overlapped: true,
	}
	compressOverlappedChannel(&c.I, f.I, ws, thr)
	compressOverlappedChannel(&c.Q, f.Q, ws, thr)
	return c, nil
}

func overlapWindowCount(n, ws int) int {
	stride := overlapStride(ws)
	if n <= ws {
		return 1
	}
	return (n-ws+stride-1)/stride + 1
}

func compressOverlappedChannel(ch *Channel, samples []int16, ws int, thr int32) {
	n := len(samples)
	numWin := overlapWindowCount(n, ws)
	stride := overlapStride(ws)
	var winBuf, coefBuf [32]int16
	var yBuf [32]int32
	win, coeffs, y := winBuf[:ws], coefBuf[:ws], yBuf[:ws]
	ch.WindowWords = make([]int, 0, numWin)
	for w := 0; w < numWin; w++ {
		base := w * stride
		for i := 0; i < ws; i++ {
			idx := base + i
			if idx < n {
				win[i] = samples[idx]
			} else {
				win[i] = samples[n-1] // hold-last padding
			}
		}
		dct.IntForwardInto(y, win, ws)
		thresholdWindow(coeffs, y, thr)
		before := len(ch.Stream)
		ch.Stream = rle.AppendWindow(ch.Stream, coeffs)
		ch.WindowWords = append(ch.WindowWords, len(ch.Stream)-before)
	}
}

// decompressOverlappedChannel reconstructs with a k/4 crossfade in the
// 3-sample overlap of consecutive windows.
func decompressOverlappedChannel(ch *Channel, ws, n int) ([]int16, error) {
	stride := overlapStride(ws)
	out := make([]int16, 0, n+ws)
	var yBuf [32]int32
	var sBuf [32]int16
	winIdx := 0
	i := 0
	for i < len(ch.Stream) {
		y := yBuf[:ws]
		for k := range y {
			y[k] = 0
		}
		covered := 0
		for covered < ws {
			if i >= len(ch.Stream) {
				return nil, fmt.Errorf("truncated overlapped stream in window %d", winIdx)
			}
			w := ch.Stream[i]
			k, run := rle.Decode(w)
			switch k {
			case rle.KindSample:
				y[covered] = int32(rle.SampleValue(w))
				covered++
			case rle.KindZeroRun:
				covered += run
			case rle.KindRepeat:
				return nil, fmt.Errorf("repeat codeword on the overlapped path")
			}
			i++
		}
		if covered != ws {
			return nil, fmt.Errorf("rle: window decodes to %d samples, want %d", covered, ws)
		}
		samples := sBuf[:ws]
		dct.IntInverseInto(samples, y, ws)
		if winIdx == 0 {
			out = append(out, samples...)
		} else {
			base := winIdx * stride
			// Crossfade the 3 overlap samples: weights 1/4, 2/4, 3/4
			// toward the new window (shift-add friendly).
			for k := 0; k < OverlapLen && base+k < len(out); k++ {
				old := int32(out[base+k])
				new_ := int32(samples[k])
				wNew := int32(k + 1)
				out[base+k] = int16((old*(4-wNew) + new_*wNew) / 4)
			}
			tail := OverlapLen
			if base+tail < len(out) {
				tail = len(out) - base
			}
			out = append(out, samples[tail:]...)
		}
		winIdx++
	}
	if len(out) < n {
		return nil, fmt.Errorf("overlapped stream decodes to %d samples, want %d", len(out), n)
	}
	return out[:n], nil
}

// BoundaryMSE measures reconstruction error restricted to the samples
// adjacent to window boundaries — the distortion the overlapped scheme
// targets. stride is the window advance of the layout being assessed.
func BoundaryMSE(orig, rec *wave.Fixed, stride int) float64 {
	if stride < 2 {
		return 0
	}
	var sum float64
	count := 0
	for _, ch := range [2][2][]int16{{orig.I, rec.I}, {orig.Q, rec.Q}} {
		o, r := ch[0], ch[1]
		for b := stride; b < len(o); b += stride {
			for _, idx := range []int{b - 1, b} {
				d := float64(int32(o[idx])-int32(r[idx])) / wave.FullScale
				sum += d * d
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
