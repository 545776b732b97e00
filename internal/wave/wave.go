// Package wave provides the waveform substrate for COMPAQT: pulse
// envelopes used to drive superconducting qubits, their fixed-point
// representation, and the distortion metrics that the compression
// pipeline and the fidelity models are built on.
//
// A waveform is the complex envelope of a microwave control pulse,
// split into an in-phase (I) and quadrature (Q) component (Section II-A
// of the paper). Samples are generated at the DAC sampling rate and are
// stored in Q1.15 fixed point (16 bits per channel, 32 bits per I/Q
// pair), matching the IBM sample size in Table I of the paper.
package wave

import (
	"fmt"
	"math"
)

// FullScale is the largest magnitude representable in Q1.15 fixed point.
// Envelope amplitudes are dimensionless in [-1, 1]; 1.0 maps to 32767.
const FullScale = 32767

// Waveform is a complex pulse envelope sampled at SampleRate.
// I and Q always have the same length.
type Waveform struct {
	// Name identifies the waveform (e.g. "X_q3", "CX_q1_q2").
	Name string
	// SampleRate is the DAC sampling rate in samples per second.
	SampleRate float64
	// I is the in-phase component, dimensionless amplitude in [-1, 1].
	I []float64
	// Q is the quadrature component, dimensionless amplitude in [-1, 1].
	Q []float64
}

// Samples returns the number of I/Q sample pairs.
func (w *Waveform) Samples() int { return len(w.I) }

// Duration returns the waveform duration in seconds.
func (w *Waveform) Duration() float64 {
	if w.SampleRate == 0 {
		return 0
	}
	return float64(len(w.I)) / w.SampleRate
}

// Bytes returns the uncompressed storage footprint in bytes:
// 16 bits per channel per sample (32 bits per I/Q pair).
func (w *Waveform) Bytes() int { return 4 * len(w.I) }

// Bits returns the uncompressed storage footprint in bits.
func (w *Waveform) Bits() int { return 32 * len(w.I) }

// Validate reports whether the waveform is structurally sound: matching
// channel lengths, at least one sample, and amplitudes within [-1, 1].
func (w *Waveform) Validate() error {
	if len(w.I) != len(w.Q) {
		return fmt.Errorf("wave: %q channel length mismatch: I=%d Q=%d", w.Name, len(w.I), len(w.Q))
	}
	if len(w.I) == 0 {
		return fmt.Errorf("wave: %q has no samples", w.Name)
	}
	for i := range w.I {
		if math.Abs(w.I[i]) > 1 || math.Abs(w.Q[i]) > 1 {
			return fmt.Errorf("wave: %q sample %d out of range: I=%g Q=%g", w.Name, i, w.I[i], w.Q[i])
		}
		if math.IsNaN(w.I[i]) || math.IsNaN(w.Q[i]) {
			return fmt.Errorf("wave: %q sample %d is NaN", w.Name, i)
		}
	}
	return nil
}

// Clone returns a deep copy of the waveform.
func (w *Waveform) Clone() *Waveform {
	c := &Waveform{Name: w.Name, SampleRate: w.SampleRate}
	c.I = append([]float64(nil), w.I...)
	c.Q = append([]float64(nil), w.Q...)
	return c
}

// Fixed is a waveform quantized to Q1.15 fixed point, the representation
// stored in (and streamed from) the waveform memory.
type Fixed struct {
	Name       string
	SampleRate float64
	I          []int16
	Q          []int16
}

// Samples returns the number of I/Q sample pairs.
func (f *Fixed) Samples() int { return len(f.I) }

// Bits returns the storage footprint in bits (32 per pair).
func (f *Fixed) Bits() int { return 32 * len(f.I) }

// Quantize converts a float envelope to Q1.15 fixed point with
// round-to-nearest and saturation.
func (w *Waveform) Quantize() *Fixed {
	f := &Fixed{}
	w.QuantizeInto(f)
	return f
}

// QuantizeInto is Quantize with caller-provided storage: f's channel
// slices are length-adjusted in place (reusing their capacity), so a
// pooled Fixed quantizes repeatedly without touching the allocator.
func (w *Waveform) QuantizeInto(f *Fixed) {
	f.Name = w.Name
	f.SampleRate = w.SampleRate
	f.I = growSamples(f.I, len(w.I))
	f.Q = growSamples(f.Q, len(w.Q))
	for i := range w.I {
		f.I[i] = QuantizeSample(w.I[i])
		f.Q[i] = QuantizeSample(w.Q[i])
	}
}

// growSamples returns s resized to n, reusing capacity when possible.
func growSamples(s []int16, n int) []int16 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int16, n)
}

// Dequantize converts back to a float envelope.
func (f *Fixed) Dequantize() *Waveform {
	w := &Waveform{
		Name:       f.Name,
		SampleRate: f.SampleRate,
		I:          make([]float64, len(f.I)),
		Q:          make([]float64, len(f.Q)),
	}
	for i := range f.I {
		w.I[i] = float64(f.I[i]) / FullScale
		w.Q[i] = float64(f.Q[i]) / FullScale
	}
	return w
}

// Clone returns a deep copy.
func (f *Fixed) Clone() *Fixed {
	c := &Fixed{Name: f.Name, SampleRate: f.SampleRate}
	c.I = append([]int16(nil), f.I...)
	c.Q = append([]int16(nil), f.Q...)
	return c
}

// QuantizeSample converts one dimensionless amplitude to Q1.15.
func QuantizeSample(x float64) int16 {
	v := math.Round(x * FullScale)
	if v > FullScale {
		v = FullScale
	}
	if v < -FullScale {
		// Symmetric clamp: -32768 is reserved so that the RLE codeword
		// signature (MSB-tagged words) can never collide with a sample.
		v = -FullScale
	}
	return int16(v)
}

// MSE returns the mean squared error between two envelopes, averaged
// over both channels. The envelopes must have equal length.
func MSE(a, b *Waveform) float64 {
	if len(a.I) != len(b.I) {
		panic(fmt.Sprintf("wave: MSE length mismatch %d vs %d", len(a.I), len(b.I)))
	}
	var sum float64
	for i := range a.I {
		di := a.I[i] - b.I[i]
		dq := a.Q[i] - b.Q[i]
		sum += di*di + dq*dq
	}
	return sum / float64(2*len(a.I))
}

// MSEFixed is MSE on fixed-point waveforms, in dimensionless amplitude
// units (i.e. the sample difference scaled back by FullScale). The
// difference is taken in int32: a full-swing error (32767 vs -32767)
// does not fit int16.
func MSEFixed(a, b *Fixed) float64 {
	if len(a.I) != len(b.I) {
		panic(fmt.Sprintf("wave: MSEFixed length mismatch %d vs %d", len(a.I), len(b.I)))
	}
	var sum float64
	for i := range a.I {
		di := float64(int32(a.I[i])-int32(b.I[i])) / FullScale
		dq := float64(int32(a.Q[i])-int32(b.Q[i])) / FullScale
		sum += di*di + dq*dq
	}
	return sum / float64(2*len(a.I))
}

// MaxAbsError returns the maximum per-sample amplitude error between two
// fixed-point waveforms, in dimensionless units. Like MSEFixed it
// subtracts in int32.
func MaxAbsError(a, b *Fixed) float64 {
	var m float64
	for i := range a.I {
		if d := math.Abs(float64(int32(a.I[i])-int32(b.I[i])) / FullScale); d > m {
			m = d
		}
		if d := math.Abs(float64(int32(a.Q[i])-int32(b.Q[i])) / FullScale); d > m {
			m = d
		}
	}
	return m
}

// Energy returns the total pulse energy sum(I^2+Q^2) in amplitude^2
// units; used to normalize drive strengths in the fidelity model.
func (w *Waveform) Energy() float64 {
	var e float64
	for i := range w.I {
		e += w.I[i]*w.I[i] + w.Q[i]*w.Q[i]
	}
	return e
}

// Area returns the integral of the I channel in amplitude*samples;
// for a resonant drive this sets the net rotation angle of the gate.
func (w *Waveform) Area() float64 {
	var a float64
	for _, v := range w.I {
		a += v
	}
	return a
}

// ZeroCrossings counts sign changes on the given channel. Zero crossings
// determine whether delta compression is effective (Section IV-B).
func ZeroCrossings(ch []float64) int {
	n := 0
	prev := 0.0
	for _, v := range ch {
		if v == 0 {
			continue
		}
		if prev != 0 && (v > 0) != (prev > 0) {
			n++
		}
		prev = v
	}
	return n
}
