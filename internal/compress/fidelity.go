package compress

import (
	"fmt"

	"compaqt/internal/wave"
)

// Fidelity-aware compression (Algorithm 1 of the paper). Each gate
// pulse is unique, and a uniform threshold can cost fidelity on some
// qubits; the compiler therefore tunes the threshold per pulse until
// the decompressed waveform meets a target MSE, which the paper shows
// is highly correlated with gate fidelity (Section IV-C).

// StartThreshold is the initial (aggressive) relative threshold that
// Algorithm 1 halves from.
const StartThreshold = 0.064

// MinThreshold is the floor below which Algorithm 1 gives up
// (threshold < 1e-6 in the paper's pseudocode).
const MinThreshold = 1e-6

// Result carries a tuned compression along with the achieved error.
type Result struct {
	Compressed *Compressed
	// MSE is the mean squared error between the original and the
	// decompressed waveform, in unit-amplitude terms.
	MSE float64
	// Threshold is the tuned relative threshold.
	Threshold float64
	// Iterations is the number of threshold halvings performed.
	Iterations int
}

// FidelityAware compresses f, halving the threshold until the
// round-trip MSE is at or below targetMSE. It returns an error if no
// threshold above MinThreshold achieves the target (the "-1" return of
// Algorithm 1), which for the integer variants can happen when the
// transform's own rounding noise exceeds the target. f's I and Q
// channels must have equal length.
//
// Transform once, threshold many. The forward transform does not
// depend on the threshold, and RLE is lossless on the clamped
// coefficients, so the search never encodes or decodes a stream.
//
//   - DCT-W and int-DCT-W transform every window once. Each halving
//     re-inverts only the windows holding a coefficient with |c| in
//     [t_new, t_old) — on the first pass, every window — since no
//     other window's thresholded coefficients changed. Repeat windows
//     on the adaptive path hold the previous reconstructed sample,
//     exactly as decompression does.
//   - DCT-N transforms each channel once. Its quantizer scale depends
//     on which coefficients survive, so each halving re-quantizes and
//     fully inverts.
//   - Delta and Dict ignore the threshold: they are encoded and
//     decoded once.
//
// The reconstructions come from the same inverse kernels Decompress
// runs (inverseWindow, inverseDCTN) applied to the same coefficients,
// and the MSE is wave.MSEFixed over them, so every accept/halve
// decision, and the encoding produced at the accepted threshold, is
// identical to compressing and decompressing at each threshold.
func FidelityAware(f *wave.Fixed, opts Options, targetMSE float64) (*Result, error) {
	if len(f.I) != len(f.Q) {
		return nil, fmt.Errorf("compress: %q channel length mismatch: I=%d Q=%d", f.Name, len(f.I), len(f.Q))
	}
	var (
		thr, mse float64
		iters    int
		ok       bool
		c        *Compressed
	)
	switch opts.Variant {
	case DCTW, IntDCTW:
		if err := checkWindow(opts); err != nil {
			return nil, err
		}
		s := newWindowedSearch(f, opts)
		defer s.release()
		if thr, mse, iters, ok = halve(targetMSE, s.mse); ok {
			c = s.encode(windowThreshold(thr))
		}
	case DCTN:
		s := newDCTNSearch(f)
		defer s.release()
		if thr, mse, iters, ok = halve(targetMSE, s.mse); ok {
			c = s.encode(thr)
		}
	default:
		fixed, err := Compress(f, opts)
		if err != nil {
			return nil, err
		}
		d, err := fixed.Decompress()
		if err != nil {
			return nil, err
		}
		m := wave.MSEFixed(f, d)
		if thr, mse, iters, ok = halve(targetMSE, func(float64) float64 { return m }); ok {
			c = fixed
		}
	}
	if !ok {
		return nil, fmt.Errorf("compress: no threshold above %g meets MSE target %g for %q (%v ws=%d)",
			MinThreshold, targetMSE, f.Name, opts.Variant, opts.WindowSize)
	}
	return &Result{Compressed: c, MSE: mse, Threshold: thr, Iterations: iters}, nil
}

// halve is Algorithm 1's schedule: starting at StartThreshold, it
// halves the threshold until roundTripMSE(thr) <= target, and reports
// the accepted threshold, its MSE and the number of halvings. ok is
// false when the threshold falls below MinThreshold first.
func halve(target float64, roundTripMSE func(thr float64) float64) (thr, mse float64, iters int, ok bool) {
	for thr = StartThreshold; thr >= MinThreshold; thr /= 2 {
		if mse = roundTripMSE(thr); mse <= target {
			return thr, mse, iters, true
		}
		iters++
	}
	return 0, 0, 0, false
}

// windowedSearch is Algorithm 1's state for DCT-W and int-DCT-W: the
// cached coefficients plus each channel's reconstruction at the
// threshold last tried.
type windowedSearch struct {
	windowedTransform
	rec   [2]*[]int16 // pooled, numWindows*ws each (hold-last padded)
	recon wave.Fixed  // the reconstructions trimmed to the waveform length
	prev  int32       // integer threshold rec holds; -1 before the first pass
}

func newWindowedSearch(f *wave.Fixed, opts Options) windowedSearch {
	s := windowedSearch{windowedTransform: transformWindowed(f, opts), prev: -1}
	for i := range s.ch {
		s.rec[i] = int16Pool.get(s.ch[i].numWindows() * s.ch[i].ws)
	}
	s.recon.I = (*s.rec[0])[:s.ch[0].n]
	s.recon.Q = (*s.rec[1])[:s.ch[1].n]
	return s
}

// mse reconstructs the waveform as encoded at relative threshold thr
// and returns its MSE against the original.
func (s *windowedSearch) mse(thr float64) float64 {
	t := windowThreshold(thr)
	for i := range s.ch {
		s.ch[i].reconstruct(*s.rec[i], t, s.prev)
	}
	s.prev = t
	return wave.MSEFixed(s.f, &s.recon)
}

func (s *windowedSearch) release() {
	s.windowedTransform.release()
	for _, r := range s.rec {
		int16Pool.put(r)
	}
}

// reconstruct brings rec from the decoding at integer threshold prev
// (prev < 0: rec holds nothing yet) to the decoding at thr <= prev.
// A window's thresholded coefficients change only if one of them has
// |c| in [thr, prev); every other window is already correct.
func (cc *channelCoeffs) reconstruct(rec []int16, thr, prev int32) {
	var coefBuf [32]int16
	coeffs := coefBuf[:cc.ws]
	var last int16
	for w := 0; w < cc.numWindows(); {
		base := w * cc.ws
		if run, next := cc.repeatRun(w); run > 0 {
			// Hold the previous reconstructed sample, as decompression
			// does; the window before the run may just have changed.
			for i := range rec[base : base+run] {
				rec[base+i] = last
			}
			w = next
			continue
		}
		if coef := cc.window(w); prev < 0 || crosses(coef, thr, prev) {
			thresholdWindow(coeffs, coef, thr)
			inverseWindow(rec[base:base+cc.ws], coeffs, cc.variant)
		}
		last = rec[min(base+cc.ws, cc.n)-1]
		w++
	}
}

// crosses reports whether a coefficient of the window has magnitude in
// [lo, hi), i.e. is zeroed at threshold hi but kept at lo.
func crosses(coef []int32, lo, hi int32) bool {
	for _, c := range coef {
		if a := abs32(c); a >= lo && a < hi {
			return true
		}
	}
	return false
}

// dctnSearch is Algorithm 1's state for DCT-N: the cached per-channel
// coefficients plus scratch for quantizing and inverting.
type dctnSearch struct {
	dctnTransform
	coeffs *[]int16    // pooled quantizer output
	yf, xf *[]float64  // pooled inverse scratch
	rec    [2]*[]int16 // pooled reconstructions, I and Q
	recon  wave.Fixed
}

// newDCTNSearch transforms f, whose channels have equal length.
func newDCTNSearch(f *wave.Fixed) dctnSearch {
	n := f.Samples()
	s := dctnSearch{dctnTransform: transformDCTN(f), coeffs: int16Pool.get(n),
		yf: floatPool.get(n), xf: floatPool.get(n), rec: [2]*[]int16{int16Pool.get(n), int16Pool.get(n)}}
	s.recon.I, s.recon.Q = *s.rec[0], *s.rec[1]
	return s
}

func (s *dctnSearch) mse(thr float64) float64 {
	for i := range s.y {
		scale := quantizeDCTN(*s.coeffs, *s.y[i], thr)
		inverseDCTN(*s.rec[i], *s.coeffs, scale, *s.yf, *s.xf)
	}
	return wave.MSEFixed(s.f, &s.recon)
}

func (s *dctnSearch) release() {
	s.dctnTransform.release()
	int16Pool.put(s.coeffs)
	floatPool.put(s.yf)
	floatPool.put(s.xf)
	int16Pool.put(s.rec[0])
	int16Pool.put(s.rec[1])
}

// RoundTripMSE compresses and decompresses f once with the given
// options and reports the resulting MSE (Fig. 7c's metric).
func RoundTripMSE(f *wave.Fixed, opts Options) (float64, error) {
	c, err := Compress(f, opts)
	if err != nil {
		return 0, err
	}
	d, err := c.Decompress()
	if err != nil {
		return 0, err
	}
	return wave.MSEFixed(f, d), nil
}
