// Package compress implements COMPAQT's compile-time waveform
// compression (Section IV of the paper): windowed (integer) DCT with
// thresholding and run-length encoding, the DCT-N and DCT-W reference
// variants, the Delta and Dictionary baselines the paper compares
// against, fidelity-aware threshold tuning (Algorithm 1), and the
// adaptive flat-top scheme of Section V-D.
//
// Compression runs in software at the end of a calibration cycle;
// decompression is performed by the hardware pipeline modeled in
// internal/engine. The compressed representation here is exactly the
// word stream that engine consumes.
//
// The DCT variants compress in two stages: a threshold-independent
// forward transform into pooled scratch, then threshold, clamp and
// RLE-encode. Compress runs both once. Algorithm 1 (FidelityAware)
// runs the transform once and searches thresholds over the cached
// coefficients, inverting them with the kernels Decompress uses. RLE
// is lossless on the clamped coefficients, so skipping the stream round
// trip changes no decision and no output byte.
package compress

import (
	"fmt"
	"math"

	"compaqt/internal/dct"
	"compaqt/internal/rle"
	"compaqt/internal/wave"
)

// Variant selects the compression algorithm (Table II plus baselines).
type Variant int

const (
	// Delta is the sign-magnitude delta-encoding baseline (Sec. IV-B).
	Delta Variant = iota
	// Dict is the block-dictionary baseline (Sec. IV-B).
	Dict
	// DCTN is the N-point floating-point DCT over the whole waveform.
	DCTN
	// DCTW is the windowed floating-point DCT.
	DCTW
	// IntDCTW is the windowed HEVC-style integer DCT — the variant the
	// COMPAQT hardware implements.
	IntDCTW
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case Delta:
		return "Delta"
	case Dict:
		return "Dict"
	case DCTN:
		return "DCT-N"
	case DCTW:
		return "DCT-W"
	case IntDCTW:
		return "int-DCT-W"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Layout selects how compressed windows are placed in memory
// (Section V-C).
type Layout int

const (
	// LayoutUniform gives every window of a waveform the same width,
	// equal to the worst-case compressed window. This sacrifices some
	// capacity but turns compression into deterministic bandwidth on
	// banked FPGA memory — the COMPAQT RFSoC design point.
	LayoutUniform Layout = iota
	// LayoutPacked stores each window at its natural width, fetched
	// sequentially. Used by the ASIC design point (Section VII-D) and
	// by capacity-only comparisons such as DCT-N.
	LayoutPacked
)

// DefaultThreshold is the relative coefficient threshold used when no
// fidelity target drives Algorithm 1. Coefficients below this fraction
// of full scale are zeroed before RLE. The value 0.008 is what
// Algorithm 1 typically converges to on IBM-style DRAG/CR libraries: it
// leaves at most ~3 words per 16-sample window (Fig. 11) with
// round-trip MSE in the paper's 1e-7..5e-6 band (Fig. 7c).
const DefaultThreshold = 0.008

// Options configures compression.
type Options struct {
	Variant Variant
	// WindowSize applies to DCTW/IntDCTW: 4, 8, 16 or 32.
	WindowSize int
	// Threshold is the relative threshold (fraction of full scale);
	// 0 means DefaultThreshold. Ignored by Delta/Dict.
	Threshold float64
	// Adaptive enables the flat-top repeat path (Section V-D). Only
	// meaningful for IntDCTW with LayoutPacked accounting.
	Adaptive bool
}

func (o Options) threshold() float64 {
	if o.Threshold == 0 {
		return DefaultThreshold
	}
	return o.Threshold
}

// Fingerprint renders the options that determine Compress output —
// variant, window, effective threshold, adaptive — as a stable string
// for content-addressed cache keying. Two Options with equal
// fingerprints produce byte-identical streams for the same input.
// Layout is excluded on purpose: it only changes Ratio accounting,
// never the encoded stream.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("%v/ws=%d/thr=%g/adaptive=%t",
		o.Variant, o.WindowSize, o.threshold(), o.Adaptive)
}

// Channel is one compressed I or Q stream.
type Channel struct {
	// Stream is the word sequence as stored in memory: DCT windows
	// (literal coefficients + zero-run codeword) interleaved with
	// repeat codewords on the adaptive path.
	Stream []rle.Word
	// WindowWords[i] is the word count of the i-th DCT window, in
	// stream order (repeat codewords are not windows). Used for the
	// uniform-layout width computation and Fig. 11's histogram.
	WindowWords []int
	// RepeatWords counts repeat codewords in the stream.
	RepeatWords int
	// RepeatSamples counts time-domain samples covered by repeats.
	RepeatSamples int
	// Scale is the per-channel dequantization scale for the float DCT
	// variants (DCTN); 0 for fixed-scale variants.
	Scale float64
	// BaselineWords overrides the stored word count for variants whose
	// encoding is not the Stream (Delta, Dict) or that carry side data
	// (DCT-N scale factors). 0 means "use len(Stream)".
	BaselineWords int
}

// Words returns the packed word count of the channel.
func (c *Channel) Words() int {
	if c.BaselineWords > 0 {
		return c.BaselineWords
	}
	return len(c.Stream)
}

// Compressed is a waveform after compile-time compression.
type Compressed struct {
	Name       string
	Variant    Variant
	WindowSize int
	SampleRate float64
	// Samples is the original per-channel sample count.
	Samples int
	// Overlapped marks the overlapping-window layout (see overlap.go);
	// its windows advance by WindowSize-OverlapLen samples.
	Overlapped bool
	I, Q       Channel

	// delta/dict baselines store their own encodings.
	delta *deltaEncoding
	dict  *dictEncoding
}

// Compress compresses a fixed-point waveform. The original waveform is
// not retained; Decompress reconstructs the (lossy) result.
func Compress(f *wave.Fixed, opts Options) (*Compressed, error) {
	switch opts.Variant {
	case Delta:
		return compressDelta(f)
	case Dict:
		return compressDict(f)
	case DCTN:
		return compressDCTN(f, opts), nil
	case DCTW, IntDCTW:
		if err := checkWindow(opts); err != nil {
			return nil, err
		}
		return compressWindowed(f, opts), nil
	default:
		return nil, fmt.Errorf("compress: unknown variant %v", opts.Variant)
	}
}

// Windowed compression (DCT-W, int-DCT-W) runs in two stages:
//
//   - transform: the forward coefficients of every DCT window, computed
//     once into pooled scratch. They do not depend on the threshold.
//   - encode(thr): threshold, clamp and RLE-encode those coefficients.

func checkWindow(opts Options) error {
	if !dct.ValidWindow(opts.WindowSize) {
		return fmt.Errorf("compress: invalid window size %d for %v", opts.WindowSize, opts.Variant)
	}
	return nil
}

// windowThreshold converts a relative threshold to the integer
// coefficient magnitude below which windowed coefficients are zeroed.
func windowThreshold(rel float64) int32 {
	return int32(math.Round(rel * wave.FullScale))
}

// windowedTransform is the transform stage's output for one waveform.
type windowedTransform struct {
	f    *wave.Fixed
	opts Options
	ch   [2]channelCoeffs // I, Q
}

// channelCoeffs holds one channel's forward coefficients, window w at
// coef[w*ws : (w+1)*ws]. Repeat windows (adaptive path) are not
// transformed; their slots hold stale scratch.
type channelCoeffs struct {
	n, ws   int
	variant Variant
	coef    *[]int32 // pooled
	repeat  []bool   // repeat windows; nil when not adaptive
}

// transformWindowed runs the transform stage over both channels. The
// caller validates the variant and window size, and must call release.
func transformWindowed(f *wave.Fixed, opts Options) windowedTransform {
	t := windowedTransform{f: f, opts: opts}
	for i, samples := range [2][]int16{f.I, f.Q} {
		t.ch[i] = transformChannel(samples, opts)
	}
	return t
}

func (t *windowedTransform) release() {
	for i := range t.ch {
		int32Pool.put(t.ch[i].coef)
	}
}

// encode runs the encode stage at integer threshold thr.
func (t *windowedTransform) encode(thr int32) *Compressed {
	c := &Compressed{
		Name:       t.f.Name,
		Variant:    t.opts.Variant,
		WindowSize: t.opts.WindowSize,
		SampleRate: t.f.SampleRate,
		Samples:    t.f.Samples(),
	}
	t.ch[0].encode(&c.I, thr)
	t.ch[1].encode(&c.Q, thr)
	return c
}

// compressWindowed implements the DCT-W and int-DCT-W paths.
func compressWindowed(f *wave.Fixed, opts Options) *Compressed {
	t := transformWindowed(f, opts)
	defer t.release()
	return t.encode(windowThreshold(opts.threshold()))
}

func transformChannel(samples []int16, opts Options) channelCoeffs {
	n, ws := len(samples), opts.WindowSize
	cc := channelCoeffs{n: n, ws: ws, variant: opts.Variant}
	numWin := cc.numWindows()
	cc.coef = int32Pool.get(numWin * ws)
	// Adaptive path: mark windows fully covered by a flat run that
	// begins strictly before them, so the "hold previous sample"
	// semantics reproduce the flat value (Section V-D). Each channel
	// carries its own repeats (packed/ASIC layout).
	if opts.Adaptive {
		cc.repeat = make([]bool, numWin)
		markRepeatWindows(samples, ws, cc.repeat)
	}
	var winBuf [32]int16
	win := winBuf[:ws]
	for w := 0; w < numWin; w++ {
		if cc.repeat != nil && cc.repeat[w] {
			continue
		}
		// The final partial window is padded by holding the last sample
		// (zero-padding would add a step discontinuity on channels that
		// end slightly off zero, e.g. the DRAG derivative channel, and
		// blow up the window's high-frequency content).
		for i := range win {
			if idx := w*ws + i; idx < n {
				win[i] = samples[idx]
			} else {
				win[i] = samples[n-1]
			}
		}
		forwardWindow(cc.window(w), win, cc.variant)
	}
	return cc
}

func (cc *channelCoeffs) numWindows() int { return (cc.n + cc.ws - 1) / cc.ws }

func (cc *channelCoeffs) window(w int) []int32 {
	return (*cc.coef)[w*cc.ws : (w+1)*cc.ws]
}

// repeatRun reports the samples covered by the run of consecutive
// repeat windows starting at window w (0 if w is a DCT window) and the
// first window after the run. Consecutive repeat windows coalesce into
// one run.
func (cc *channelCoeffs) repeatRun(w int) (run, next int) {
	if cc.repeat == nil || !cc.repeat[w] {
		return 0, w
	}
	start := w
	for w < len(cc.repeat) && cc.repeat[w] {
		w++
	}
	run = (w - start) * cc.ws
	if end := start*cc.ws + run; end > cc.n {
		run -= end - cc.n
	}
	return run, w
}

// encode is the encode stage for one channel: each DCT window is
// thresholded, clamped and RLE-encoded, repeat runs become repeat
// codewords. The stream and WindowWords grow by amortized append.
func (cc *channelCoeffs) encode(ch *Channel, thr int32) {
	numWin := cc.numWindows()
	ch.WindowWords = make([]int, 0, numWin)
	var coefBuf [32]int16
	coeffs := coefBuf[:cc.ws]
	for w := 0; w < numWin; {
		if run, next := cc.repeatRun(w); run > 0 {
			before := len(ch.Stream)
			ch.Stream = rle.AppendRepeatRun(ch.Stream, run)
			ch.RepeatWords += len(ch.Stream) - before
			ch.RepeatSamples += run
			w = next
			continue
		}
		thresholdWindow(coeffs, cc.window(w), thr)
		before := len(ch.Stream)
		ch.Stream = rle.AppendWindow(ch.Stream, coeffs)
		ch.WindowWords = append(ch.WindowWords, len(ch.Stream)-before)
		w++
	}
}

// forwardWindow writes the forward coefficients of one window, in the
// stored integer units, to dst. All scratch lives in fixed stack
// buffers.
func forwardWindow(dst []int32, win []int16, v Variant) {
	ws := len(win)
	if v == IntDCTW {
		dct.IntForwardInto(dst, win, ws)
		return
	}
	// DCTW: float DCT with fixed scaling sqrt(ws), which puts the stored
	// coefficients in the same units as the integer path (so the same
	// threshold applies) and makes a unit-amplitude window fit 16 bits.
	var xfBuf, yfBuf [32]float64
	xf, yf := xfBuf[:ws], yfBuf[:ws]
	for i, s := range win {
		xf[i] = float64(s)
	}
	dct.ForwardInto(yf, xf)
	scale := math.Sqrt(float64(ws))
	for k, c := range yf {
		dst[k] = int32(math.Round(c / scale))
	}
}

// thresholdWindow zeroes the coefficients below thr in magnitude and
// clamps the rest to the stored 16-bit range.
func thresholdWindow(dst []int16, coef []int32, thr int32) {
	for k, c := range coef {
		if abs32(c) < thr {
			c = 0
		}
		dst[k] = clampCoeff(c)
	}
}

// inverseWindow reconstructs one window's samples from its stored
// coefficients: the integer IDCT the hardware runs for IntDCTW, the
// float inverse with the sqrt(ws) scale restored for DCTW.
func inverseWindow(dst, coeffs []int16, v Variant) {
	ws := len(coeffs)
	if v == IntDCTW {
		var yBuf [32]int32
		y := yBuf[:ws]
		for k, c := range coeffs {
			y[k] = int32(c)
		}
		dct.IntInverseInto(dst, y, ws)
		return
	}
	var yfBuf, xfBuf [32]float64
	yf, xf := yfBuf[:ws], xfBuf[:ws]
	scale := math.Sqrt(float64(ws))
	for k, c := range coeffs {
		yf[k] = float64(c) * scale
	}
	dct.InverseInto(xf, yf)
	for k, x := range xf {
		dst[k] = clamp16(int64(math.Round(x)))
	}
}

// Decompress reconstructs the waveform. For IntDCTW this is exactly the
// computation the hardware engine performs (internal/engine checks
// bit-equality against it).
func (c *Compressed) Decompress() (*wave.Fixed, error) {
	switch c.Variant {
	case Delta:
		return c.delta.decode(c)
	case Dict:
		return c.dict.decode(c)
	case DCTN:
		return decompressDCTN(c)
	case DCTW, IntDCTW:
		out := &wave.Fixed{Name: c.Name, SampleRate: c.SampleRate}
		var err error
		if c.Overlapped {
			out.I, err = decompressOverlappedChannel(&c.I, c.WindowSize, c.Samples)
			if err != nil {
				return nil, fmt.Errorf("decompress %q I: %w", c.Name, err)
			}
			out.Q, err = decompressOverlappedChannel(&c.Q, c.WindowSize, c.Samples)
			if err != nil {
				return nil, fmt.Errorf("decompress %q Q: %w", c.Name, err)
			}
			return out, nil
		}
		out.I, err = decompressChannel(&c.I, c.WindowSize, c.Samples, c.Variant)
		if err != nil {
			return nil, fmt.Errorf("decompress %q I: %w", c.Name, err)
		}
		out.Q, err = decompressChannel(&c.Q, c.WindowSize, c.Samples, c.Variant)
		if err != nil {
			return nil, fmt.Errorf("decompress %q Q: %w", c.Name, err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("decompress: unknown variant %v", c.Variant)
	}
}

// decompressChannel walks the stream: repeat codewords hold the last
// emitted sample; anything else begins a DCT window. Per-window scratch
// lives in fixed stack buffers; the only allocation is the returned
// sample slice.
func decompressChannel(ch *Channel, ws, n int, v Variant) ([]int16, error) {
	if n < 0 {
		return nil, fmt.Errorf("negative sample count %d", n)
	}
	if n == 0 {
		if len(ch.Stream) != 0 {
			return nil, fmt.Errorf("%d stream words but zero samples declared", len(ch.Stream))
		}
		return nil, nil
	}
	// n samples plus room for the hold-last padding of a final partial
	// window (trimmed before return), so decoding never regrows out.
	out := make([]int16, 0, n+ws-1)
	var last int16
	var coefBuf, sBuf [32]int16
	i := 0
	for i < len(ch.Stream) {
		if k, run := rle.Decode(ch.Stream[i]); k == rle.KindRepeat {
			// Repeats never extend past the waveform end in compiler
			// output; reject overruns before growing the buffer so a
			// hostile stream cannot amplify a few words into gigabytes.
			if run > n-len(out) {
				return nil, fmt.Errorf("repeat run of %d overruns the %d declared samples", run, n)
			}
			out = rle.AppendRun(out, last, run)
			i++
			continue
		}
		// Decode one DCT window straight into the coefficient buffer:
		// words until ws samples are covered.
		coeffs := coefBuf[:ws]
		for k := range coeffs {
			coeffs[k] = 0
		}
		start := i
		covered := 0
		for covered < ws {
			if i >= len(ch.Stream) {
				return nil, fmt.Errorf("truncated stream in window starting at word %d", start)
			}
			w := ch.Stream[i]
			k, run := rle.Decode(w)
			switch k {
			case rle.KindSample:
				coeffs[covered] = rle.SampleValue(w)
				covered++
			case rle.KindZeroRun:
				covered += run
			case rle.KindRepeat:
				return nil, fmt.Errorf("repeat codeword inside DCT window at word %d", i)
			}
			i++
		}
		if covered != ws {
			return nil, fmt.Errorf("rle: window decodes to %d samples, want %d", covered, ws)
		}
		samples := sBuf[:ws]
		inverseWindow(samples, coeffs, v)
		out = append(out, samples...)
		if len(out) > n {
			out = out[:n] // drop zero padding of the final window
		}
		last = out[len(out)-1]
	}
	if len(out) != n {
		return nil, fmt.Errorf("stream decodes to %d samples, want %d", len(out), n)
	}
	return out, nil
}

// markRepeatWindows flags windows fully inside a constant run that
// starts before the window (so "hold previous" reproduces the value).
func markRepeatWindows(samples []int16, ws int, repeatWin []bool) {
	n := len(samples)
	i := 0
	for i < n {
		j := i
		for j+1 < n && samples[j+1] == samples[i] {
			j++
		}
		// Constant run samples[i..j]. Windows fully within (i, j].
		if j > i {
			firstWin := i/ws + 1 // first window starting strictly after i
			if i%ws == 0 && i > 0 && samples[i-1] == samples[i] {
				firstWin = i / ws
			}
			lastWin := (j+1)/ws - 1 // last window ending at or before j+1
			for w := firstWin; w <= lastWin && w < len(repeatWin); w++ {
				if w*ws > i && (w+1)*ws <= j+1 {
					repeatWin[w] = true
				}
			}
		}
		i = j + 1
	}
}

// Words returns the stored word count under the given layout, summed
// over both channels. Under LayoutUniform every DCT window occupies the
// worst-case window width of the waveform (shared across channels, as
// the paper keeps both channels at the same per-window sample count).
func (c *Compressed) Words(layout Layout) int {
	switch c.Variant {
	case Delta, Dict, DCTN:
		// Baselines and whole-waveform DCT have no windowed layout.
		return c.I.Words() + c.Q.Words()
	}
	if layout == LayoutPacked {
		return c.I.Words() + c.Q.Words()
	}
	width := c.MaxWindowWords()
	total := 0
	for _, ch := range []*Channel{&c.I, &c.Q} {
		total += width*len(ch.WindowWords) + ch.RepeatWords
	}
	return total
}

// OriginalWords is the uncompressed footprint in 16-bit words.
func (c *Compressed) OriginalWords() int { return 2 * c.Samples }

// Ratio returns the compression ratio R = old size / new size
// (Figure 7's metric).
func (c *Compressed) Ratio(layout Layout) float64 {
	w := c.Words(layout)
	if w == 0 {
		return math.Inf(1)
	}
	return float64(c.OriginalWords()) / float64(w)
}

// MaxWindowWords returns the worst-case compressed window width across
// both channels — the uniform-layout width and the quantity
// histogrammed in Fig. 11.
func (c *Compressed) MaxWindowWords() int {
	m := 0
	for _, ch := range []*Channel{&c.I, &c.Q} {
		for _, w := range ch.WindowWords {
			if w > m {
				m = w
			}
		}
	}
	return m
}

// WindowHistogram accumulates the per-window compressed word counts of
// both channels into hist[words] (Fig. 11).
func (c *Compressed) WindowHistogram(hist map[int]int) {
	for _, ch := range []*Channel{&c.I, &c.Q} {
		for _, w := range ch.WindowWords {
			hist[w]++
		}
	}
}

func clampCoeff(v int32) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32767 {
		return -32767
	}
	return int16(v)
}

func clamp16(v int64) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32767 {
		return -32767
	}
	return int16(v)
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}
