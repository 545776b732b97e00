package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"slices"

	"compaqt"
	"compaqt/codec"
	"compaqt/qctrl"
	"compaqt/waveform"
)

func newSHA() hash.Hash { return sha256.New() }

// digest is the content identity the benchmark records for published
// image bytes.
type digest [sha256.Size]byte

func digestOf(b []byte) digest { return sha256.Sum256(b) }

// checkDigest checks image bytes served under a name against the
// digest recorded when they were published.
func checkDigest(body []byte, want digest) error {
	if got := digestOf(body); got != want {
		return fmt.Errorf("body of %d bytes hashes to %x, published %x", len(body), got[:6], want[:6])
	}
	return nil
}

// checkEntries verifies that a compiled image holds one entry per
// pulse sent, in order.
func checkEntries(img *compaqt.Image, pulses []*qctrl.Pulse) error {
	if len(img.Entries) != len(pulses) {
		return fmt.Errorf("image %q has %d entries for %d pulses", img.Machine, len(img.Entries), len(pulses))
	}
	for i, p := range pulses {
		if k := p.Key(); img.Entries[i].Key != k {
			return fmt.Errorf("image %q entry %d is %q, sent %q", img.Machine, i, img.Entries[i].Key, k)
		}
	}
	return nil
}

// checkPublished verifies that a compile's write-through reached the
// store: the name is bound to exactly the image's wire bytes, and the
// store reports itself healthy.
func checkPublished(st *compaqt.ImageStore, name string, img *compaqt.Image) error {
	if st == nil {
		return fmt.Errorf("image %q: no store to publish to", name)
	}
	if err := st.Healthy(); err != nil {
		return fmt.Errorf("image %q: store unhealthy after publish: %w", name, err)
	}
	blob, ok := st.Get(name)
	if !ok {
		return fmt.Errorf("image %q was not published to the store", name)
	}
	defer blob.Release()
	wire, err := img.AppendTo(nil)
	if err != nil {
		return fmt.Errorf("serializing %q: %w", name, err)
	}
	if !bytes.Equal(blob.Bytes(), wire) {
		return fmt.Errorf("image %q: store holds %d bytes that differ from the compiled %d", name, blob.Size(), len(wire))
	}
	return nil
}

// worstMSE decodes every entry in software and returns the largest
// round-trip MSE against the quantized pulse it was compiled from.
func worstMSE(cdc codec.Codec, img *compaqt.Image, pulses []*qctrl.Pulse) (float64, error) {
	worst := 0.0
	for i, p := range pulses {
		rec, err := cdc.Decode(img.Entries[i].Compressed)
		if err != nil {
			return 0, fmt.Errorf("decoding entry %q: %w", p.Key(), err)
		}
		orig := p.Waveform.Quantize()
		if len(rec.I) != len(orig.I) {
			return 0, fmt.Errorf("entry %q decodes to %d samples, pulse has %d", p.Key(), len(rec.I), len(orig.I))
		}
		if mse := waveform.MSEFixed(orig, rec); mse > worst {
			worst = mse
		}
	}
	return worst, nil
}

// checkBitExact compares the engine's output for an entry with the
// codec's software decode of the same stream.
func checkBitExact(cdc codec.Codec, e *compaqt.Entry, played *waveform.Fixed) error {
	ref, err := cdc.Decode(e.Compressed)
	if err != nil {
		return fmt.Errorf("software decode of %q: %w", e.Key, err)
	}
	if !slices.Equal(ref.I, played.I) || !slices.Equal(ref.Q, played.Q) {
		return fmt.Errorf("engine output of %q differs from the software decode", e.Key)
	}
	return nil
}

// packedWords sums an image's Q1.15 and packed word counts; both are
// 16-bit words, so their ratio is the byte ratio.
func packedWords(img *compaqt.Image) (orig, packed int) {
	for i := range img.Entries {
		c := img.Entries[i].Compressed
		orig += c.OriginalWords()
		packed += c.Words(codec.LayoutPacked)
	}
	return orig, packed
}

// checkLog keeps the first few check failures of a phase for the
// report.
type checkLog struct{ errs []string }

func (c *checkLog) add(err error) {
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
}
