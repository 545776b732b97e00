package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"compaqt"
	"compaqt/codec"
	"compaqt/internal/cache"
	"compaqt/internal/dct"
	"compaqt/internal/store"
	"compaqt/qctrl"
	"compaqt/waveform"
)

// replayStoreBytes bounds the replay store, as recalStoreBytes bounds
// recalibrate's: the traced run's memory stays flat however many
// operations it replays.
const replayStoreBytes = 16 << 20

// replayer measures, per traced operation, every library layer an
// image passes through between a pulse and a controller: quantize,
// digest, encode and the int-DCT, serialize, store publish and read
// back, decode, and play. It calls each layer's public functions on
// the operation's own pulses and image, so every workload reports
// every layer on its own data. Where the workload's operation runs a
// layer, the replay is that call on the same inputs; where it does
// not (no compile in fleet-read, no store read in recalibrate), it is
// what this workload's data costs there. The self shares say which
// layers are on a workload's path.
type replayer struct {
	mse   float64
	par   int // fan-out width, the Service's
	enc   codec.FidelityEncoder
	fp    string
	dir   string
	store *store.Store
	eng   *qctrl.Engine
	buf   []byte
	read  []byte

	windows    map[int]int // transform windows per replayed operation
	imageBytes int64       // serialized bytes over the replayed operations
	images     int
	played     int64 // I and Q samples played, on path or replayed
}

func newReplayer(dir string, svc *compaqt.Service, mse float64) (*replayer, error) {
	cdc := svc.Codec()
	enc, ok := cdc.(codec.FidelityEncoder)
	if !ok {
		return nil, fmt.Errorf("codec %s has no MSE-targeted encode", cdc.Name())
	}
	fp, ok := cdc.(codec.Fingerprinter)
	if !ok {
		return nil, fmt.Errorf("codec %s has no cache fingerprint", cdc.Name())
	}
	st, err := store.Open(filepath.Join(dir, "replay"), replayStoreBytes)
	if err != nil {
		return nil, err
	}
	eng, err := qctrl.NewEngine(16)
	if err != nil {
		st.Close()
		return nil, err
	}
	return &replayer{mse: mse, par: svc.Parallelism(), enc: enc, fp: fp.CacheKey(),
		dir: filepath.Join(dir, "replay"), store: st, eng: eng, windows: map[int]int{}}, nil
}

func (r *replayer) close() { r.store.Close() }

// replay times every layer on operation op's pulses and the image
// they compiled to. With onPath the operation itself decoded and
// played the image (fleet-read), which the caller recorded; otherwise
// the replay decodes the image's bytes and plays every entry.
func (r *replayer) replay(tr *tracer, op int, pulses []*qctrl.Pulse, img *compaqt.Image, onPath bool) error {
	fixed := make([]*waveform.Fixed, len(pulses))
	tr.parallel("compaqt.quantize", op, r.par, len(pulses), func(i int) { fixed[i] = pulses[i].Waveform.Quantize() })
	tr.parallel("cache.digest", op, r.par, len(pulses), func(i int) { cache.DigestWaveform(r.fp, r.mse, fixed[i]) })
	tr.parallel("codec.encode", op, r.par, len(pulses), func(i int) { r.enc.EncodeWithTarget(fixed[i], r.mse) })
	ws := img.WindowSize
	out := make([]int32, ws)
	windows := 0
	tr.time("dct.forward", op, func() {
		for _, f := range fixed {
			for _, x := range [][]int16{f.I, f.Q} {
				for w := 0; w+ws <= len(x); w += ws {
					dct.IntForwardInto(out, x[w:w+ws], ws)
					windows++
				}
			}
		}
	})
	r.windows[op] = windows

	var err error
	tr.time("core.serialize", op, func() { r.buf, err = img.AppendTo(r.buf[:0]) })
	if err != nil {
		return err
	}
	r.imageBytes += int64(len(r.buf))
	r.images++
	name := fmt.Sprintf("replay-%d", op)
	tr.time("store.publish", op, func() { err = r.store.PutImage(name, img) })
	if err != nil {
		return err
	}
	tr.time("store.get", op, func() {
		r.read = r.read[:0]
		if blob, ok := r.store.Get(name); ok {
			r.read = append(r.read, blob.Bytes()...)
			blob.Release()
		}
	})
	if !bytes.Equal(r.read, r.buf) {
		return fmt.Errorf("replay store read %d bytes of %q, published %d others", len(r.read), name, len(r.buf))
	}
	if onPath {
		return nil
	}
	var dec *compaqt.Image
	tr.time("core.decode", op, func() { dec, err = compaqt.DecodeImageBytes(r.buf) })
	if err != nil {
		return err
	}
	tr.time("engine.play", op, func() {
		for j := range dec.Entries {
			var f *waveform.Fixed
			if f, _, err = r.eng.Run(dec.Entries[j].Compressed); err != nil {
				return
			}
			r.played += int64(len(f.I) + len(f.Q))
		}
	})
	return err
}

// progCounts are the program's own counters over the traced phase:
// CompileEvent totals or /v1/stats deltas.
type progCounts struct {
	pulses, encodes           uint64
	hits, lookups, evictions  uint64
	storePuts, storePutDedups uint64
}

// layerMetrics are the per-layer metrics every workload reports: the
// replayed layer times, the program's counters, and the self shares
// of the two layers only some workloads run (0 where a workload's
// operation does not enter the layer).
func (r *replayer) layerMetrics(tr *tracer, c progCounts, serverShare, qctrlShare float64) []metric {
	play := tr.stat("engine.play")
	fwd := tr.perOp("dct.forward")
	perWindow := make([]float64, 0, len(fwd))
	windows := make([]float64, 0, len(fwd))
	for op, d := range fwd {
		perWindow = append(perWindow, ratio(float64(d), float64(r.windows[op])))
		windows = append(windows, float64(r.windows[op]))
	}
	du, held := diskUsage(r.dir), r.store.Stats().Bytes
	puts := c.storePuts + c.storePutDedups
	return []metric{
		timeMetric("compaqt.quantize_ms", tr.stat("compaqt.quantize"), time.Millisecond),
		countMetric("compaqt.encode_share", "ratio", ratio(float64(c.encodes), float64(c.pulses)),
			fmt.Sprintf("%d encodes / %d pulses compiled", c.encodes, c.pulses)),
		timeMetric("cache.digest_ms", tr.stat("cache.digest"), time.Millisecond),
		countMetric("cache.hit_share", "ratio", ratio(float64(c.hits), float64(c.lookups)), fmt.Sprintf("%d lookups", c.lookups)),
		countMetric("cache.evictions", "count", float64(c.evictions), ""),
		timeMetric("codec.encode_ms", tr.stat("codec.encode"), time.Millisecond),
		{name: "dct.forward_ns", unit: "ns", value: median(perWindow), n: len(perWindow),
			note: fmt.Sprintf("p50 per window over operations, median %.0f windows per operation", median(windows))},
		timeMetric("core.serialize_ms", tr.stat("core.serialize"), time.Millisecond),
		timeMetric("core.decode_ms", tr.stat("core.decode"), time.Millisecond),
		countMetric("core.image_kb", "KB", ratio(float64(r.imageBytes)/1024, float64(r.images)), "mean serialized image"),
		timeMetric("store.publish_ms", tr.stat("store.publish"), time.Millisecond),
		timeMetric("store.get_us", tr.stat("store.get"), time.Microsecond),
		countMetric("store.put_dedup_share", "ratio", ratio(float64(c.storePutDedups), float64(puts)),
			fmt.Sprintf("%d puts by the program", puts)),
		countMetric("store.bytes_per_image_byte", "ratio", ratio(float64(du), float64(held)),
			fmt.Sprintf("%d disk bytes / %d image bytes held", du, held)),
		timeMetric("engine.play_ms", play, time.Millisecond),
		countMetric("engine.msamples_per_s", "Msamples/s", ratio(float64(r.played), play.total.Seconds())/1e6, "over engine play time"),
		countMetric("server.share", "ratio", serverShare, "self share of the operation"),
		countMetric("qctrl.share", "ratio", qctrlShare, "self share of the operation"),
	}
}
