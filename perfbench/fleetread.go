package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"compaqt"
	"compaqt/codec"
	"compaqt/qctrl"
	"compaqt/waveform"
)

// The fleet-read workload: one controller client, closed loop. Each
// operation GETs a controller image from a compaqt-serve process,
// decodes it and plays every entry through the decompression engine.
// The image set is larger than the server's in-memory image map, so
// GETs split between the map and the warm store's mmap path. Nothing
// compiles while the clock runs.
//
// One controller, not nproc: two CPU-bound controllers on a 2-vCPU
// host leave the server waiting for a CPU on every GET. On such a host
// that put the GET round trip's p99 at 1.1-2.8 ms (20 runs) against
// 0.4-0.5 ms with one (4 runs), and spread its p50 by 27% across ten
// seeds.
const (
	fleetImages = 192 // more than the server's default map of 128
	fleetMapped = 96  // re-published after the warm restart: map hits
	fleetSetups = 15
	fleetMSE    = 5e-6
	// fleetCheckEvery: one played entry in this many, chosen by seed, is
	// checked bit-exact against the software decode.
	fleetCheckEvery = 16
	fleetOrder      = 1 << 16 // length of the seeded GET sequence
)

// fleetImage is one published controller image.
type fleetImage struct {
	name   string
	lib    []*qctrl.Pulse // the pulses it was compiled from
	wire   []byte
	digest digest
	worst  float64 // worst software-decode MSE of its entries
	mapped bool
}

func runFleetRead(rc *runCtx) (*report, error) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(rc.seed))

	// Inputs: one image per controller, each a drifted calibration of
	// a 5-qubit machine compiled in process, and a seeded GET order.
	base := qctrl.Bogota()
	compiler, err := compaqt.New(compaqt.WithMSETarget(fleetMSE))
	if err != nil {
		return nil, err
	}
	images := make([]fleetImage, fleetImages)
	for i := range images {
		name := fmt.Sprintf("ctrl-%03d", i)
		lib := driftMachine(base, rc.seed, i).Library()
		img, err := compiler.CompileBatch(ctx, name, lib)
		if err != nil {
			return nil, err
		}
		wire, err := img.AppendTo(nil)
		if err != nil {
			return nil, err
		}
		worst, err := worstMSE(compiler.Codec(), img, lib)
		if err != nil {
			return nil, err
		}
		images[i] = fleetImage{name: name, lib: lib, wire: wire, digest: digestOf(wire), worst: worst}
	}
	for _, k := range rng.Perm(fleetImages)[:fleetMapped] {
		images[k].mapped = true
	}
	order := make([]int, fleetOrder)
	for i := range order {
		order[i] = rng.Intn(fleetImages)
	}
	imageURL := func(s *server, im *fleetImage) string { return s.url + "/v1/images/" + im.name }

	// Populate the store once, then measure set-up as a warm restart on
	// it: server start, store recovery, re-publishing the mapped half.
	dir := filepath.Join(rc.dir, "store")
	args := []string{"-store-dir", dir}
	s0, err := startServer(rc.serveBin, rc.hc, args...)
	if err != nil {
		return nil, err
	}
	for i := range images {
		if err := put(ctx, rc.hc, imageURL(s0, &images[i]), images[i].wire); err != nil {
			s0.stop()
			return nil, fmt.Errorf("publishing %s: %w", images[i].name, err)
		}
	}
	s0.stop()
	var setups []float64
	var srv *server
	for r := 0; r < fleetSetups; r++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		if srv, err = startServer(rc.serveBin, rc.hc, args...); err != nil {
			return nil, err
		}
		for i := range images {
			if !images[i].mapped {
				continue
			}
			if err := put(ctx, rc.hc, imageURL(srv, &images[i]), images[i].wire); err != nil {
				srv.stop()
				return nil, fmt.Errorf("re-publishing %s: %w", images[i].name, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer srv.stop()

	eng, err := qctrl.NewEngine(16)
	if err != nil {
		return nil, err
	}
	cdc, err := codec.New("intdct-w", codec.Params{})
	if err != nil {
		return nil, err
	}
	var rp *replayer // the traced phase's layer replays

	// A fleet operation runs from the GET to the last entry played; its
	// units are the pulses (entries) played. The GET round trips are
	// kept apart for the report.
	type fleetPhase struct {
		opPhase
		gets []opRecord
		seen map[string]bool // images whose figures are folded in
	}
	var buf bytes.Buffer
	timed := func(tr *tracer, d time.Duration, first, minOps int) (*fleetPhase, error) {
		ph := &fleetPhase{seen: map[string]bool{}}
		var replayErr error
		closedLoop(d, minOps, 1, func(seq int) {
			op := first + seq
			im := &images[order[op%len(order)]]
			start := time.Now()
			body, err := get(ctx, rc.hc, imageURL(srv, im), &buf)
			got := time.Now()
			var img *compaqt.Image
			if err == nil {
				img, err = compaqt.DecodeImageBytes(body)
			}
			decoded := time.Now()
			var samples int64
			var check []int // entries checked bit-exact, with their outputs
			var played []*waveform.Fixed
			if err == nil {
				for j := range img.Entries {
					out, _, perr := eng.Run(img.Entries[j].Compressed)
					if perr != nil {
						err = fmt.Errorf("playing %s/%s: %w", im.name, img.Entries[j].Key, perr)
						break
					}
					samples += int64(len(out.I) + len(out.Q))
					if (rc.seed+int64(op)*131+int64(j)*7)%fleetCheckEvery == 0 {
						check = append(check, j)
						played = append(played, out)
					}
				}
			}
			end := time.Now()
			// Checks, off the clock: the body hashes to the published
			// digest, the image is within its MSE budget, and the sampled
			// entries played bit-exact.
			if err == nil {
				err = checkDigest(body, im.digest)
			}
			if err == nil {
				err = checkMSE(im.name, im.worst, fleetMSE)
			}
			for k := 0; err == nil && k < len(check); k++ {
				err = checkBitExact(cdc, &img.Entries[check[k]], played[k])
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", im.name, err)
			}
			ph.gets = append(ph.gets, opRecord{iv: interval{tr.at(start), tr.at(got)}, failed: err != nil})
			ph.done(im.name, interval{tr.at(start), tr.at(end)}, len(im.lib), err)
			if err != nil {
				return
			}
			if !ph.seen[im.name] {
				ph.seen[im.name] = true
				ph.image(img, im.worst)
			}
			if !tr.on || replayErr != nil {
				return
			}
			tr.record("get", op, start, got)
			tr.record("core.decode", op, got, decoded)
			tr.record("engine.play", op, decoded, end)
			tr.record("op", op, start, end)
			rp.played += samples
			replayErr = rp.replay(tr, op, im.lib, img, true)
		})
		return ph, replayErr
	}
	result := func(ph *fleetPhase) (phase, error) {
		rss, err := srv.peakRSSMB()
		if err != nil {
			return phase{}, err
		}
		return ph.result(fleetMSE, rss), nil
	}

	rep := &report{setup: setupMetric(setups, "warm restart on the populated store, healthy, mapped half re-published")}
	rep.lines = append(rep.lines, fmt.Sprintf(
		"%d images of %s (%d in the server's map), 1 controller client, closed loop, 1 in %d played entries checked bit-exact",
		fleetImages, base.Name, fleetMapped, fleetCheckEvery))
	seconds := rc.seconds
	if rc.trace {
		seconds /= 2
	}
	// The controller allocates about 250 MB/s in decode and play over a
	// 5 MB live heap: at the default GOGC its collector would run every
	// 25 ms.
	quietCollector()
	prepare()
	measured, _ := timed(newTracer(false, rc.epoch), seconds, 0, minSamples(0.9))
	if rep.measured, err = result(measured); err != nil {
		return nil, err
	}
	// The GET round trip alone is printed, not gated: about 0.2 ms on
	// loopback, and on a VM its tail follows the host's CPU steal
	// (get_ms.p99 0.41-0.45 ms at steal of 1% or less, 0.99 ms at 4%,
	// 1.7 ms at 6%, over 30 s runs on 2 vCPUs), whatever the program does.
	for _, q := range []float64{0.5, 0.9, 0.99} {
		m := quantileMetric(fmt.Sprintf("get_ms.p%g", 100*q), measured.gets, q)
		rep.lines = append(rep.lines, fmt.Sprintf("not gated: %s %s", m.name, formatMetric(m)))
	}
	if !rc.trace {
		return rep, nil
	}

	if rp, err = newReplayer(rc.dir, compiler, fleetMSE); err != nil {
		return nil, err
	}
	defer rp.close()
	st0, err := srv.stats(rc.hc)
	if err != nil {
		return nil, err
	}
	tr := newTracer(true, rc.epoch)
	prepare()
	traced, err := timed(tr, seconds, len(order)/2, 0)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	st, err := srv.stats(rc.hc)
	if err != nil {
		return nil, err
	}
	tp, err := result(traced)
	if err != nil {
		return nil, err
	}
	rep.traced = &tp

	gets := uint64(len(traced.ops))
	c := progCounts{
		hits:      st.Cache.Hits - st0.Cache.Hits,
		lookups:   (st.Cache.Hits - st0.Cache.Hits) + (st.Cache.Misses - st0.Cache.Misses),
		evictions: st.Cache.Evictions - st0.Cache.Evictions,
	}
	var storeHits uint64
	if st.Store != nil && st0.Store != nil {
		storeHits = st.Store.Hits - st0.Store.Hits
		c.storePuts, c.storePutDedups = st.Store.Puts-st0.Store.Puts, st.Store.PutDedups-st0.Store.PutDedups
	}
	ops, rtt := tr.stat("op").total, tr.stat("get")
	rep.layers = rp.layerMetrics(tr, c, ratio(float64(rtt.total), float64(ops)), 0)
	rep.detail = []metric{
		timeMetric("server.get_us", rtt, time.Microsecond),
		countMetric("server.map_hit_share", "ratio", 1-ratio(float64(storeHits), float64(gets)),
			fmt.Sprintf("%d GETs, %d served by the store", gets, storeHits)),
		countMetric("server.shed", "count", float64(st.Requests.Shed-st0.Requests.Shed), ""),
	}
	rep.shares = []metric{
		share("internal/server (with its store reads)", rtt.total, ops),
		share("internal/core", tr.stat("core.decode").total, ops),
		share("internal/engine", tr.stat("engine.play").total, ops),
	}
	return rep, nil
}
