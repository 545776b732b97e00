package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"compaqt"
	"compaqt/qctrl"
)

// The recalibrate workload: one caller, closed loop, in process. Each
// operation drifts the calibration of a 27-qubit catalog machine,
// synthesizes its pulse library and compiles it with CompileBatch
// under an MSE target, with the compile cache and the image store on,
// publishing under a fresh name. Every drift changes every waveform,
// so the cache misses and encode plus publish carry the time.
const (
	recalMSE     = 5e-6
	recalSetups  = 15
	recalWarmups = 3
	// recalStoreBytes bounds the image store (about 120 images). An
	// unbounded store keeps every published image mapped, so the peak
	// RSS would grow with the number of operations a run completes,
	// that is with the program's speed.
	recalStoreBytes = 16 << 20
	// driftSigma is the relative spread of a calibration drift.
	driftSigma = 0.01
)

// driftMachine returns base with a seeded drift applied to every
// qubit's calibration. It is a pure function of (seed, op).
func driftMachine(base *qctrl.Machine, seed int64, op int) *qctrl.Machine {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(op)))
	j := func(x float64) float64 { return x * (1 + driftSigma*rng.NormFloat64()) }
	m := *base
	m.Cal = make([]qctrl.QubitCal, len(base.Cal))
	for q, c := range base.Cal {
		c.XAmp, c.SXAmp, c.Beta, c.MeasAmp = j(c.XAmp), j(c.SXAmp), j(c.Beta), j(c.MeasAmp)
		targets := make([]int, 0, len(c.CRAmp))
		for t := range c.CRAmp {
			targets = append(targets, t)
		}
		sort.Ints(targets)
		cr := make(map[int]float64, len(targets))
		for _, t := range targets {
			cr[t] = j(c.CRAmp[t])
		}
		c.CRAmp = cr
		m.Cal[q] = c
	}
	return &m
}

// compileEvents counts what the Service reports through WithObserver.
type compileEvents struct{ pulses, encodes atomic.Int64 }

func (c *compileEvents) observe(ev compaqt.CompileEvent) {
	if ev.Err != nil {
		return
	}
	c.pulses.Add(int64(ev.Pulses))
	c.encodes.Add(int64(ev.Encodes))
}

func runRecalibrate(rc *runCtx) (*report, error) {
	ctx := context.Background()
	base := qctrl.Toronto()
	var events compileEvents
	name := func(op int) string { return fmt.Sprintf("recal-%d-%d", rc.seed, op) }

	// Set-up: Service start, store open on a fresh directory, and the
	// first compile (which starts the worker pool), repeated.
	var setups []float64
	var svc *compaqt.Service
	for r := 0; r < recalSetups; r++ {
		if svc != nil {
			svc.Store().Close()
		}
		dir := filepath.Join(rc.dir, fmt.Sprintf("store-%d", r))
		op := -1 - r
		m := driftMachine(base, rc.seed, op)
		start := time.Now()
		s, err := compaqt.New(compaqt.WithMSETarget(recalMSE), compaqt.WithCache(0),
			compaqt.WithStore(dir, recalStoreBytes), compaqt.WithObserver(events.observe))
		if err != nil {
			return nil, err
		}
		if _, err := s.CompileBatch(ctx, name(op), m.Library()); err != nil {
			return nil, fmt.Errorf("set-up compile: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		svc = s
	}
	defer svc.Store().Close()
	for r := 0; r < recalSetups-1; r++ {
		os.RemoveAll(filepath.Join(rc.dir, fmt.Sprintf("store-%d", r)))
	}
	for w := 0; w < recalWarmups; w++ {
		op := -100 - w
		if _, err := svc.CompileBatch(ctx, name(op), driftMachine(base, rc.seed, op).Library()); err != nil {
			return nil, fmt.Errorf("warm-up compile: %w", err)
		}
	}

	cdc := svc.Codec()
	var rp *replayer // the traced phase's layer replays

	// timed runs one phase; ops are numbered from first so the two
	// phases of a traced run compile different drifts.
	timed := func(tr *tracer, d time.Duration, first, minOps int) (*opPhase, error) {
		ph := &opPhase{}
		var replayErr error
		closedLoop(d, minOps, 1, func(seq int) {
			op := first + seq
			m := driftMachine(base, rc.seed, op)
			start := time.Now()
			lib := m.Library()
			mid := time.Now()
			img, err := svc.CompileBatch(ctx, name(op), lib)
			end := time.Now()
			tr.record("qctrl.synth", op, start, mid)
			tr.record("compaqt.compile", op, mid, end)
			tr.record("op", op, start, end)
			if err == nil {
				err = checkEntries(img, lib)
			}
			var worst float64
			if err == nil {
				worst, err = worstMSE(cdc, img, lib)
			}
			if err == nil {
				err = checkMSE(name(op), worst, recalMSE)
			}
			if err == nil {
				err = checkPublished(svc.Store(), name(op), img)
			}
			if err == nil {
				ph.image(img, worst)
			}
			ph.done(name(op), interval{tr.at(start), tr.at(end)}, len(lib), err)
			if tr.on && err == nil && replayErr == nil {
				replayErr = rp.replay(tr, op, lib, img, false)
			}
		})
		return ph, replayErr
	}

	rep := &report{setup: setupMetric(setups, "Service start, store open, first compile")}
	seconds := rc.seconds
	if rc.trace {
		seconds /= 2
	}
	prepare()
	measured, _ := timed(newTracer(false, rc.epoch), seconds, 0, minSamples(0.9))
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.measured = measured.result(recalMSE, rss)
	rep.lines = append(rep.lines, fmt.Sprintf("machine %s, %d pulses per operation, MSE target %g, 1 caller, closed loop",
		base.Name, len(base.Library()), recalMSE))
	if !rc.trace {
		return rep, nil
	}

	if rp, err = newReplayer(rc.dir, svc, recalMSE); err != nil {
		return nil, err
	}
	defer rp.close()
	cs0, ss0 := svc.CacheStats(), svc.StoreStats()
	p0, e0 := events.pulses.Load(), events.encodes.Load()
	tr := newTracer(true, rc.epoch)
	prepare()
	traced, err := timed(tr, seconds, 1<<20, 0)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	rss, err = peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	tp := traced.result(recalMSE, rss)
	rep.traced = &tp
	cs, ss := svc.CacheStats(), svc.StoreStats()

	ops := tr.stat("op").total
	synth := tr.stat("qctrl.synth")
	rep.layers = rp.layerMetrics(tr, progCounts{
		pulses:         uint64(events.pulses.Load() - p0),
		encodes:        uint64(events.encodes.Load() - e0),
		hits:           cs.Hits - cs0.Hits,
		lookups:        (cs.Hits - cs0.Hits) + (cs.Misses - cs0.Misses),
		evictions:      cs.Evictions - cs0.Evictions,
		storePuts:      ss.Puts - ss0.Puts,
		storePutDedups: ss.PutDedups - ss0.PutDedups,
	}, 0, ratio(float64(synth.total), float64(ops)))
	rep.detail = []metric{timeMetric("qctrl.synth_ms", synth, time.Millisecond)}
	// CompileBatch's stages are replays of its layers on the same
	// inputs; the Service's own time is the compile minus those.
	compileSelf := tr.selfStat("compaqt.compile", "compaqt.quantize", "cache.digest", "codec.encode", "store.publish").total
	rep.shares = []metric{
		share("qctrl", synth.total, ops),
		share("compaqt", compileSelf+tr.stat("compaqt.quantize").total, ops),
		share("internal/cache", tr.stat("cache.digest").total, ops),
		share("codec+internal/dct", tr.stat("codec.encode").total, ops),
		share("internal/store", tr.selfStat("store.publish", "core.serialize").total, ops),
		share("internal/core", tr.stat("core.serialize").total, ops),
		share("benchmark", tr.selfStat("op", "qctrl.synth", "compaqt.compile").total, ops),
	}
	return rep, nil
}

// diskUsage is the space the files under dir occupy on disk, in bytes.
func diskUsage(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if fi, err := d.Info(); err == nil {
			if st, ok := fi.Sys().(*syscall.Stat_t); ok {
				total += st.Blocks * 512
			}
		}
		return nil
	})
	return total
}
