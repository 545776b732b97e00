package compress

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"compaqt/internal/race"
	"compaqt/internal/wave"
)

// referenceFidelityAware is Algorithm 1 as the paper states it: at
// each threshold, compress, decompress and measure. It is the oracle
// for FidelityAware, which must return the same Result (or the same
// error) without re-running the transform at every threshold.
func referenceFidelityAware(f *wave.Fixed, opts Options, targetMSE float64) (*Result, error) {
	thr := StartThreshold
	iters := 0
	for thr >= MinThreshold {
		opts.Threshold = thr
		c, err := Compress(f, opts)
		if err != nil {
			return nil, err
		}
		d, err := c.Decompress()
		if err != nil {
			return nil, err
		}
		mse := wave.MSEFixed(f, d)
		if mse <= targetMSE {
			return &Result{Compressed: c, MSE: mse, Threshold: thr, Iterations: iters}, nil
		}
		thr /= 2
		iters++
	}
	return nil, fmt.Errorf("compress: no threshold above %g meets MSE target %g for %q (%v ws=%d)",
		MinThreshold, targetMSE, f.Name, opts.Variant, opts.WindowSize)
}

// checkMatchesReference fails t unless FidelityAware and the reference
// loop agree exactly: the same Result under reflect.DeepEqual (the
// Compressed streams, MSE, threshold and iteration count), or the same
// error text.
func checkMatchesReference(t *testing.T, f *wave.Fixed, opts Options, target float64) {
	t.Helper()
	got, gotErr := FidelityAware(f, opts, target)
	want, wantErr := referenceFidelityAware(f, opts, target)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s n=%d %+v target %g: error %v, reference %v", f.Name, f.Samples(), opts, target, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		g, w := describe(got), describe(want)
		t.Fatalf("%s n=%d %+v target %g: result %s, reference %s", f.Name, f.Samples(), opts, target, g, w)
	}
	// Compress at the accepted threshold is the same encoding.
	if want != nil {
		opts.Threshold = want.Threshold
		c, err := Compress(f, opts)
		if err != nil || !reflect.DeepEqual(c, got.Compressed) {
			t.Fatalf("%s %+v: Compress at the accepted threshold differs (err %v)", f.Name, opts, err)
		}
	}
}

func describe(r *Result) string {
	if r == nil {
		return "<nil>"
	}
	return fmt.Sprintf("{thr %g iters %d mse %g words %d}", r.Threshold, r.Iterations, r.MSE, r.Compressed.Words(LayoutPacked))
}

// fidelityShapes returns the waveforms the equivalence test sweeps:
// calibrated DRAG and flat-top pulses, smooth random envelopes whose
// length is not a multiple of any window, pulses shorter than a window,
// and full-range noise.
func fidelityShapes(rng *rand.Rand) []*wave.Fixed {
	shapes := []*wave.Fixed{dragPulse(), crPulse()}
	for _, n := range []int{1, 3, 7, 21, 100, 333} {
		f := randomSmoothWaveform(rng, max(n, 8))
		f.I, f.Q = f.I[:n], f.Q[:n]
		f.Name = fmt.Sprintf("smooth-%d", n)
		shapes = append(shapes, f)
	}
	// A flat top that starts mid-window and ends off a window boundary,
	// so the adaptive path has repeat runs to hold.
	flat := randomSmoothWaveform(rng, 403)
	for i := 57; i < 350; i++ {
		flat.I[i], flat.Q[i] = flat.I[57], flat.Q[57]
	}
	flat.Name = "flat-top"
	shapes = append(shapes, flat)
	noise := &wave.Fixed{Name: "noise", SampleRate: rate, I: make([]int16, 77), Q: make([]int16, 77)}
	for i := range noise.I {
		noise.I[i] = int16(rng.Intn(2*32767+1) - 32767)
		noise.Q[i] = int16(rng.Intn(2*32767+1) - 32767)
	}
	return append(shapes, noise)
}

func TestFidelityAwareMatchesReferenceLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	// Reachable targets at several depths of the search, one the
	// integer rounding noise makes unreachable, and one only lossless
	// coding meets.
	targets := []float64{1e-2, 1e-4, 5e-6, 1e-7, 1e-9, 0}
	for _, f := range fidelityShapes(rng) {
		for _, target := range targets {
			for _, v := range []Variant{IntDCTW, DCTW} {
				for _, ws := range []int{4, 8, 16, 32} {
					for _, adaptive := range []bool{false, true} {
						checkMatchesReference(t, f, Options{Variant: v, WindowSize: ws, Adaptive: adaptive}, target)
					}
				}
			}
			for _, v := range []Variant{DCTN, Delta, Dict} {
				checkMatchesReference(t, f, Options{Variant: v}, target)
			}
		}
	}
}

func TestFidelityAwareRejectsWhatCompressRejects(t *testing.T) {
	f := dragPulse()
	for _, opts := range []Options{
		{Variant: IntDCTW, WindowSize: 12},
		{Variant: DCTW},
		{Variant: Variant(99)},
	} {
		checkMatchesReference(t, f, opts, 1e-4)
	}
	empty := &wave.Fixed{Name: "empty", SampleRate: rate}
	for _, opts := range []Options{{Variant: IntDCTW, WindowSize: 16}, {Variant: DCTN}} {
		checkMatchesReference(t, empty, opts, 1e-4)
	}
}

func TestFidelityAwareRejectsChannelLengthMismatch(t *testing.T) {
	f := dragPulse()
	f.Q = f.Q[:len(f.Q)-5]
	if _, err := FidelityAware(f, Options{Variant: IntDCTW, WindowSize: 16}, 1e-4); err == nil {
		t.Error("mismatched I/Q lengths should be rejected")
	}
}

func TestFidelityAwareScratchComesFromThePool(t *testing.T) {
	// Algorithm 1 may allocate the Compressed it returns and its Result,
	// nothing more: the per-pulse coefficients and reconstructions are
	// pooled. The bound is what Compress allocates for the same encoding.
	if race.Enabled {
		t.Skip("-race makes sync.Pool drop cached buffers at random")
	}
	f := wave.DRAG("X", rate, wave.DRAGParams{
		Amp: 0.45, Duration: 35.2e-9, Sigma: 8.8e-9, Beta: 0.6,
	}).Quantize()
	opts := Options{Variant: IntDCTW, WindowSize: 16}
	const target = 5e-6
	res, err := FidelityAware(f, opts, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("pulse accepted at the start threshold; the guard needs a search")
	}
	accepted := opts
	accepted.Threshold = res.Threshold
	compressed := testing.AllocsPerRun(50, func() {
		if _, err := Compress(f, accepted); err != nil {
			t.Fatal(err)
		}
	})
	search := testing.AllocsPerRun(50, func() {
		if _, err := FidelityAware(f, opts, target); err != nil {
			t.Fatal(err)
		}
	})
	if search > compressed+1 {
		t.Errorf("FidelityAware allocates %.1f/op, want at most %.1f (Compress at the accepted threshold %.1f + Result)",
			search, compressed+1, compressed)
	}
}
