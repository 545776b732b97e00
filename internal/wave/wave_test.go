package wave

import (
	"math"
	"testing"
	"testing/quick"
)

const testRate = 4.54e9 // IBM DAC rate, Table I

func TestGaussianEdgesAreZero(t *testing.T) {
	w := Gaussian("g", testRate, GaussianParams{Amp: 0.5, Duration: 30e-9, Sigma: 7.5e-9})
	if w.I[0] != 0 || w.I[len(w.I)-1] != 0 {
		t.Errorf("lifted gaussian edges not zero: first=%g last=%g", w.I[0], w.I[len(w.I)-1])
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGaussianPeakAtCenter(t *testing.T) {
	w := Gaussian("g", testRate, GaussianParams{Amp: 0.5, Duration: 30e-9, Sigma: 7.5e-9})
	maxIdx, maxVal := 0, 0.0
	for i, v := range w.I {
		if v > maxVal {
			maxVal, maxIdx = v, i
		}
	}
	center := len(w.I) / 2
	if abs(maxIdx-center) > 1 {
		t.Errorf("peak at %d, want near %d", maxIdx, center)
	}
	// With an even sample count the true peak falls between samples, so
	// allow a small discretization gap.
	if math.Abs(maxVal-0.5) > 1e-3 {
		t.Errorf("peak amplitude %g, want ~0.5", maxVal)
	}
}

func TestDRAGQuadratureAntisymmetric(t *testing.T) {
	w := DRAG("x", testRate, DRAGParams{Amp: 0.4, Duration: 30e-9, Sigma: 7.5e-9, Beta: 0.6})
	n := len(w.Q)
	// Q channel is the derivative of a symmetric Gaussian: odd symmetry.
	for i := 0; i < n/2; i++ {
		if d := math.Abs(w.Q[i] + w.Q[n-1-i]); d > 1e-9 {
			t.Fatalf("Q not antisymmetric at %d: %g vs %g", i, w.Q[i], w.Q[n-1-i])
		}
	}
	// The derivative channel must cross zero near the pulse center,
	// which is what defeats sign-magnitude delta compression (Sec IV-B).
	if ZeroCrossings(w.Q) < 1 {
		t.Error("DRAG Q channel should cross zero")
	}
}

func TestDRAGAngleRotatesEnergy(t *testing.T) {
	a := DRAG("a", testRate, DRAGParams{Amp: 0.4, Duration: 30e-9, Sigma: 7.5e-9, Beta: 0.6})
	b := DRAG("b", testRate, DRAGParams{Amp: 0.4, Duration: 30e-9, Sigma: 7.5e-9, Beta: 0.6, Angle: math.Pi / 2})
	if d := math.Abs(a.Energy() - b.Energy()); d > 1e-9 {
		t.Errorf("rotation changed energy by %g", d)
	}
	// After a 90 degree rotation the I channel should carry what Q did.
	for i := range a.I {
		if math.Abs(a.I[i]-b.Q[i]) > 1e-9 || math.Abs(a.Q[i]+b.I[i]) > 1e-9 {
			t.Fatalf("sample %d not rotated by pi/2", i)
		}
	}
}

func TestGaussianSquareFlatSection(t *testing.T) {
	p := GaussianSquareParams{Amp: 0.3, Duration: 300e-9, Width: 220e-9, Sigma: 10e-9}
	w := GaussianSquare("cr", testRate, p)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Middle of the pulse should be exactly flat at Amp.
	mid := len(w.I) / 2
	for i := mid - 100; i <= mid+100; i++ {
		if w.I[i] != 0.3 {
			t.Fatalf("flat section not flat at %d: %g", i, w.I[i])
		}
	}
	if w.I[0] != 0 || w.I[len(w.I)-1] != 0 {
		t.Error("edges not lifted to zero")
	}
	if fs := p.FlatSamples(testRate); fs <= 0 || fs > len(w.I) {
		t.Errorf("FlatSamples = %d out of range", fs)
	}
}

func TestCosineTaperedMonotoneRamp(t *testing.T) {
	w := CosineTapered("ft", testRate, CosineTaperedParams{Amp: 0.5, Duration: 100e-9, RiseFall: 20e-9})
	rate := float64(testRate)
	ramp := int(20e-9 * rate)
	for i := 1; i < ramp; i++ {
		if w.I[i] < w.I[i-1] {
			t.Fatalf("rise not monotone at %d", i)
		}
	}
	mid := len(w.I) / 2
	if math.Abs(w.I[mid]-0.5) > 1e-12 {
		t.Errorf("flat top = %g, want 0.5", w.I[mid])
	}
}

func TestQuantizeRoundTripError(t *testing.T) {
	w := DRAG("x", testRate, DRAGParams{Amp: 0.9, Duration: 30e-9, Sigma: 7.5e-9, Beta: 0.5})
	got := w.Quantize().Dequantize()
	// Quantization error is at most half an LSB per sample.
	for i := range w.I {
		if d := math.Abs(w.I[i] - got.I[i]); d > 0.5/FullScale+1e-12 {
			t.Fatalf("sample %d error %g exceeds half LSB", i, d)
		}
	}
	if m := MSE(w, got); m > 1e-9 {
		t.Errorf("quantization MSE %g too large", m)
	}
}

func TestQuantizeSampleSaturates(t *testing.T) {
	if QuantizeSample(2.0) != FullScale {
		t.Error("positive overflow not clamped")
	}
	if QuantizeSample(-2.0) != -FullScale {
		t.Error("negative overflow not clamped to -FullScale")
	}
	if QuantizeSample(-1.0) != -FullScale {
		t.Error("-1.0 should map to -32767 (symmetric clamp)")
	}
	if QuantizeSample(0) != 0 {
		t.Error("zero should map to zero")
	}
}

func TestQuantizeNeverProducesMinInt16(t *testing.T) {
	// -32768 (0x8000) is reserved for RLE codeword signatures; the
	// quantizer must never emit it.
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return QuantizeSample(x) != math.MinInt16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMSEProperties(t *testing.T) {
	a := Gaussian("a", testRate, GaussianParams{Amp: 0.5, Duration: 30e-9, Sigma: 7.5e-9})
	if MSE(a, a) != 0 {
		t.Error("MSE(a,a) != 0")
	}
	b := a.Clone()
	for i := range b.I {
		b.I[i] += 0.01
	}
	want := 0.01 * 0.01 / 2 // error only on I channel, averaged over both
	if got := MSE(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("MSE = %g, want %g", got, want)
	}
	if MSE(a, b) != MSE(b, a) {
		t.Error("MSE not symmetric")
	}
}

func TestSumSuperposes(t *testing.T) {
	a := Gaussian("a", testRate, GaussianParams{Amp: 0.3, Duration: 30e-9, Sigma: 7.5e-9})
	b := Gaussian("b", testRate, GaussianParams{Amp: 0.2, Duration: 30e-9, Sigma: 7.5e-9})
	s, err := Sum("s", a, b)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(s.I) / 2
	if math.Abs(s.I[mid]-0.5) > 1e-3 {
		t.Errorf("superposed peak %g, want ~0.5", s.I[mid])
	}
	if _, err := Sum("bad", a, Constant("c", testRate, 0.1, 60e-9)); err == nil {
		t.Error("Sum should reject mismatched lengths")
	}
}

func TestZeroCrossings(t *testing.T) {
	cases := []struct {
		ch   []float64
		want int
	}{
		{[]float64{1, 2, 3}, 0},
		{[]float64{1, -1}, 1},
		{[]float64{1, 0, -1}, 1},
		{[]float64{1, -1, 1, -1}, 3},
		{[]float64{0, 0, 0}, 0},
		{[]float64{-1, -2, 0, -3}, 0},
	}
	for i, c := range cases {
		if got := ZeroCrossings(c.ch); got != c.want {
			t.Errorf("case %d: ZeroCrossings = %d, want %d", i, got, c.want)
		}
	}
}

func TestValidateRejectsBadWaveforms(t *testing.T) {
	bad := []*Waveform{
		{Name: "mismatch", I: []float64{0}, Q: []float64{}},
		{Name: "empty", I: nil, Q: nil},
		{Name: "range", I: []float64{1.5}, Q: []float64{0}},
		{Name: "nan", I: []float64{math.NaN()}, Q: []float64{0}},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("Validate(%q) should fail", w.Name)
		}
	}
}

func TestDurationAndBytes(t *testing.T) {
	w := Gaussian("g", 1e9, GaussianParams{Amp: 0.5, Duration: 100e-9, Sigma: 25e-9})
	if w.Samples() != 100 {
		t.Errorf("Samples = %d, want 100", w.Samples())
	}
	if math.Abs(w.Duration()-100e-9) > 1e-15 {
		t.Errorf("Duration = %g", w.Duration())
	}
	if w.Bytes() != 400 {
		t.Errorf("Bytes = %d, want 400", w.Bytes())
	}
	if w.Bits() != 3200 {
		t.Errorf("Bits = %d, want 3200", w.Bits())
	}
}

func TestSampleCount(t *testing.T) {
	if SampleCount(4.54e9, 30e-9) != 136 {
		t.Errorf("SampleCount(4.54GHz, 30ns) = %d, want 136", SampleCount(4.54e9, 30e-9))
	}
	if SampleCount(1e9, 0) != 1 {
		t.Error("SampleCount should floor at 1")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestFixedErrorsDoNotWrapOnFullSwing(t *testing.T) {
	// 32767 - (-32767) overflows int16; subtracted there it wraps to -2,
	// and a full-swing error reads as MSE 1.9e-9 instead of 2.
	cases := []struct{ a, b *Fixed }{
		{&Fixed{I: []int16{32767}, Q: []int16{0}}, &Fixed{I: []int16{-32767}, Q: []int16{0}}},
		{&Fixed{I: []int16{0}, Q: []int16{-32767}}, &Fixed{I: []int16{0}, Q: []int16{32767}}},
	}
	for i, c := range cases {
		// Error 2 (full scale each way) on one of two channels.
		if got := MSEFixed(c.a, c.b); got != 2 {
			t.Errorf("case %d: MSEFixed = %g, want 2", i, got)
		}
		if got := MaxAbsError(c.a, c.b); got != 2 {
			t.Errorf("case %d: MaxAbsError = %g, want 2", i, got)
		}
	}
}
