package compress

import (
	"encoding/binary"
	"math"
	"testing"

	"compaqt/internal/wave"
)

// FuzzFidelityAwareMatchesReference drives FidelityAware and the
// compress→decompress reference loop with arbitrary waveforms, variants,
// windows and targets; they must agree exactly (see
// checkMatchesReference). The payload is little-endian int16 I/Q
// sample pairs.
func FuzzFidelityAwareMatchesReference(f *testing.F) {
	pairs := func(fx *wave.Fixed) []byte {
		b := make([]byte, 4*fx.Samples())
		for i := range fx.I {
			binary.LittleEndian.PutUint16(b[4*i:], uint16(fx.I[i]))
			binary.LittleEndian.PutUint16(b[4*i+2:], uint16(fx.Q[i]))
		}
		return b
	}
	drag, cr := pairs(dragPulse()), pairs(crPulse())
	extremes := make([]byte, 4*37)
	for i := 0; i+1 < len(extremes); i += 2 {
		binary.LittleEndian.PutUint16(extremes[i:], uint16(int16(32767*(1-2*((i/2)%2)))))
	}
	// Seeds: variant (0 int-DCT-W, 1 DCT-W, 2 DCT-N), window selector,
	// adaptive, target exponent (target = 10^-e/2).
	f.Add(drag, uint8(0), uint8(2), false, uint8(11)) // the compile path: ws16, 5e-6-ish
	f.Add(drag, uint8(1), uint8(1), false, uint8(8))
	f.Add(cr, uint8(0), uint8(2), true, uint8(10)) // flat top with repeats
	f.Add(cr, uint8(0), uint8(3), true, uint8(14))
	f.Add(cr, uint8(2), uint8(0), false, uint8(12))
	f.Add(drag[:4*3], uint8(0), uint8(3), false, uint8(6)) // n < ws
	f.Add(drag[:4*45], uint8(1), uint8(0), true, uint8(9)) // n not a multiple of ws
	f.Add(extremes, uint8(0), uint8(1), false, uint8(2))   // full swing
	f.Add(extremes, uint8(2), uint8(0), false, uint8(30))  // unreachable

	f.Fuzz(func(t *testing.T, data []byte, variant, wsSel uint8, adaptive bool, exp uint8) {
		n := len(data) / 4
		if n > 4096 {
			t.Skip("waveform larger than the fuzz budget")
		}
		fx := &wave.Fixed{Name: "fuzz", SampleRate: rate, I: make([]int16, n), Q: make([]int16, n)}
		for i := 0; i < n; i++ {
			// -32768 is outside the quantizer's symmetric Q1.15 range.
			fx.I[i] = max(int16(binary.LittleEndian.Uint16(data[4*i:])), -wave.FullScale)
			fx.Q[i] = max(int16(binary.LittleEndian.Uint16(data[4*i+2:])), -wave.FullScale)
		}
		opts := Options{
			Variant:    []Variant{IntDCTW, DCTW, DCTN}[variant%3],
			WindowSize: 4 << (wsSel % 4),
			Adaptive:   adaptive,
		}
		if opts.Variant == DCTN {
			opts.WindowSize = 0
		}
		checkMatchesReference(t, fx, opts, math.Pow(10, -float64(exp%32)/2))
	})
}
