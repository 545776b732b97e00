package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"compaqt"
	"compaqt/bench"
	"compaqt/client"
	"compaqt/qctrl"
)

// The circuit-mix workload: one client, closed loop, POSTing
// /v1/compile/batch to a compaqt-serve process. Requests are catalog
// circuits lowered onto ibmq_guadalupe from a small circuit-seed pool
// with a repeat skew, each named by its instance, so inputs share
// heavily: JSON decode, quantize+digest and compile-cache hits carry
// the time.
//
// The request cycle is stratified: one bench.Workload per (family,
// qubit count) stratum contributes mixPerStratum requests. A single
// skewed stream's hot set is whatever its first draws were, which
// moved the median request size by 2x from seed to seed; with fixed
// strata the seed changes the circuits, not the mix.
//
// One client, not nproc: on a 2-vCPU host a second closed-loop client
// keeps both CPUs busy with the server's own fan-out, and the latency
// it reads is mostly waiting for a CPU.
const (
	mixMSE        = 5e-6
	mixPerStratum = 6
	mixSkew       = 0.5
	mixSeeds      = 2
	mixSetups     = 15
)

// mixSizes are the strata's qubit counts.
var mixSizes = []int{3, 5}

// mixRequest is one request of the cycle with its body encoded once.
type mixRequest struct {
	name   string
	pulses []*qctrl.Pulse
	body   []byte // shared by every request of the same instance
}

func runCircuitMix(rc *runCtx) (*report, error) {
	ctx := context.Background()
	machine := qctrl.Guadalupe()
	var strata [][]*bench.Request
	for fi, family := range bench.Names() {
		for _, n := range mixSizes {
			wl, err := bench.NewWorkload(bench.WorkloadOptions{
				Machine:    machine,
				Families:   []string{family},
				MinQubits:  n,
				MaxQubits:  n,
				Seeds:      mixSeeds,
				RepeatSkew: mixSkew,
				Seed:       rc.seed*1000 + int64(fi*10+n),
			})
			if err != nil {
				return nil, err
			}
			reqs, err := wl.Requests(mixPerStratum)
			if err != nil {
				return nil, err
			}
			strata = append(strata, reqs)
		}
	}
	// Interleave the strata so every stretch of the cycle has the mix.
	var reqs []*bench.Request
	for j := 0; j < mixPerStratum; j++ {
		for _, st := range strata {
			reqs = append(reqs, st[j])
		}
	}
	// Encode each distinct body once, before anything is timed.
	cycle := make([]mixRequest, len(reqs))
	bodies := map[string][]byte{}
	instances := map[string][]*qctrl.Pulse{}
	bodyBytes, pulsesPerCycle := 0, 0
	for i, r := range reqs {
		name := r.Name()
		b, ok := bodies[name]
		if !ok {
			specs := make([]client.PulseSpec, len(r.Pulses))
			for j, p := range r.Pulses {
				specs[j] = client.FromPulse(p)
			}
			var err error
			if b, err = json.Marshal(client.BatchRequest{Image: name, Pulses: specs}); err != nil {
				return nil, err
			}
			bodies[name] = b
			instances[name] = r.Pulses
		}
		cycle[i] = mixRequest{name: name, pulses: r.Pulses, body: b}
		bodyBytes += len(b)
		pulsesPerCycle += len(r.Pulses)
	}

	args := func(dir string) []string {
		return []string{"-mse", fmt.Sprint(mixMSE), "-store-dir", dir}
	}
	compileURL := func(s *server) string { return s.url + "/v1/compile/batch" }
	send := func(s *server, r *mixRequest) error {
		b, err := post(ctx, rc.hc, compileURL(s), r.body)
		if err != nil {
			return err
		}
		return checkBatchResponse(b, r)
	}

	// Set-up: server start on a fresh store directory, healthy, first
	// compile answered; repeated.
	var setups []float64
	var srv *server
	for r := 0; r < mixSetups; r++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		s, err := startServer(rc.serveBin, rc.hc, args(filepath.Join(rc.dir, fmt.Sprintf("store-%d", r)))...)
		if err != nil {
			return nil, err
		}
		srv = s
		if err := send(s, &cycle[0]); err != nil {
			srv.stop()
			return nil, fmt.Errorf("set-up compile: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer srv.stop()
	// Warm-up: one pass over the cycle, discarded.
	for i := range cycle {
		if err := send(srv, &cycle[i]); err != nil {
			return nil, fmt.Errorf("warm-up compile: %w", err)
		}
	}

	// The traced run replays, per operation, the calls the server makes
	// on the same inputs: JSON decode into pulses, then CompileBatch on
	// a Service configured as the server's; then every layer (see
	// replayer) on those pulses and the image they compiled to.
	shadow, err := compaqt.New(compaqt.WithMSETarget(mixMSE), compaqt.WithCache(0))
	if err != nil {
		return nil, err
	}
	var rp *replayer

	timed := func(tr *tracer, d time.Duration, minOps int) (*opPhase, map[string]bool, error) {
		ph := &opPhase{}
		compiled := map[string]bool{}
		var replayErr error
		closedLoop(d, minOps, len(cycle), func(seq int) {
			r := &cycle[seq%len(cycle)]
			start := time.Now()
			b, err := post(ctx, rc.hc, compileURL(srv), r.body)
			end := time.Now()
			tr.record("server.rtt", seq, start, end)
			if err == nil {
				err = checkBatchResponse(b, r)
			}
			ph.done(r.name, interval{tr.at(start), tr.at(end)}, len(r.pulses), err)
			if err != nil {
				return
			}
			compiled[r.name] = true
			if !tr.on || replayErr != nil {
				return
			}
			var req client.BatchRequest
			var pulses []*qctrl.Pulse
			tr.time("server.decode", seq, func() {
				if err = json.Unmarshal(r.body, &req); err != nil {
					return
				}
				pulses = make([]*qctrl.Pulse, len(req.Pulses))
				for i := range req.Pulses {
					if pulses[i], err = req.Pulses[i].Pulse(); err != nil {
						return
					}
				}
			})
			var img *compaqt.Image
			if err == nil {
				tr.time("compaqt.compile", seq, func() { img, err = shadow.CompileBatch(ctx, r.name, pulses) })
			}
			if err == nil {
				err = rp.replay(tr, seq, pulses, img, false)
			}
			replayErr = err
		})
		return ph, compiled, replayErr
	}

	// finish checks every image the phase compiled — fetched after the
	// clock stopped — for fidelity, and folds in its compression.
	finish := func(ph *opPhase, compiled map[string]bool) (phase, error) {
		var buf bytes.Buffer
		cdc := shadow.Codec()
		for name := range compiled {
			body, err := get(ctx, rc.hc, srv.url+"/v1/images/"+name, &buf)
			var img *compaqt.Image
			if err == nil {
				img, err = compaqt.DecodeImageBytes(body)
			}
			if err == nil {
				err = checkEntries(img, instances[name])
			}
			var worst float64
			if err == nil {
				worst, err = worstMSE(cdc, img, instances[name])
			}
			if err == nil {
				err = checkMSE(name, worst, mixMSE)
			}
			if err != nil {
				ph.failImage(name, err)
				continue
			}
			ph.image(img, worst)
		}
		rss, err := srv.peakRSSMB()
		if err != nil {
			return phase{}, err
		}
		return ph.result(mixMSE, rss), nil
	}

	rep := &report{setup: setupMetric(setups, "server start on a fresh store, healthy, first compile answered")}
	sizes := make([]float64, len(cycle))
	for i := range cycle {
		sizes[i] = float64(len(cycle[i].pulses))
	}
	rep.lines = append(rep.lines, fmt.Sprintf(
		"machine %s, cycle of %d requests (%d distinct instances, %d pulses, p50 %g and p90 %g pulses per request, %.1f MB of bodies), 1 client, closed loop",
		machine.Name, len(cycle), len(bodies), pulsesPerCycle, quantileOf(sizes, 0.5), quantileOf(sizes, 0.9), float64(bodyBytes)/1e6))
	seconds := rc.seconds
	if rc.trace {
		seconds /= 2
	}
	quietCollector()
	prepare()
	ph, compiled, _ := timed(newTracer(false, rc.epoch), seconds, minSamples(0.9))
	if rep.measured, err = finish(ph, compiled); err != nil {
		return nil, err
	}
	if !rc.trace {
		return rep, nil
	}

	if rp, err = newReplayer(rc.dir, shadow, mixMSE); err != nil {
		return nil, err
	}
	defer rp.close()
	st0, err := srv.stats(rc.hc)
	if err != nil {
		return nil, err
	}
	tr := newTracer(true, rc.epoch)
	prepare()
	ph, compiled, err = timed(tr, seconds, len(cycle))
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	st, err := srv.stats(rc.hc)
	if err != nil {
		return nil, err
	}
	tp, err := finish(ph, compiled)
	if err != nil {
		return nil, err
	}
	rep.traced = &tp

	c := progCounts{
		pulses:    st.Compile.Pulses - st0.Compile.Pulses,
		encodes:   st.Compile.Encodes - st0.Compile.Encodes,
		hits:      st.Cache.Hits - st0.Cache.Hits,
		lookups:   (st.Cache.Hits - st0.Cache.Hits) + (st.Cache.Misses - st0.Cache.Misses),
		evictions: st.Cache.Evictions - st0.Cache.Evictions,
	}
	if st.Store != nil && st0.Store != nil {
		c.storePuts, c.storePutDedups = st.Store.Puts-st0.Store.Puts, st.Store.PutDedups-st0.Store.PutDedups
	}
	ops := tr.stat("server.rtt").total
	serverSelf := tr.selfStat("server.rtt", "server.decode", "compaqt.compile")
	rep.layers = rp.layerMetrics(tr, c, ratio(float64(tr.selfStat("server.rtt", "compaqt.compile").total), float64(ops)), 0)
	rep.detail = []metric{
		timeMetric("server.decode_ms", tr.stat("server.decode"), time.Millisecond),
		timeMetric("server.self_ms", serverSelf, time.Millisecond),
		countMetric("server.shed", "count", float64(st.Requests.Shed-st0.Requests.Shed), ""),
	}
	compileSelf := tr.selfStat("compaqt.compile", "compaqt.quantize", "cache.digest").total
	rep.shares = []metric{
		share("internal/server", serverSelf.total, ops),
		share("internal/server JSON decode", tr.stat("server.decode").total, ops),
		share("compaqt", compileSelf+tr.stat("compaqt.quantize").total, ops),
		share("internal/cache", tr.stat("cache.digest").total, ops),
	}
	return rep, nil
}

// checkBatchResponse verifies that a batch compile answered one entry
// per pulse sent, in order.
func checkBatchResponse(body []byte, r *mixRequest) error {
	var res client.BatchResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("decoding batch response for %q: %w", r.name, err)
	}
	if len(res.Entries) != len(r.pulses) {
		return fmt.Errorf("batch %q answered %d entries for %d pulses", r.name, len(res.Entries), len(r.pulses))
	}
	for i, p := range r.pulses {
		if k := p.Key(); res.Entries[i].Key != k {
			return fmt.Errorf("batch %q entry %d is %q, sent %q", r.name, i, res.Entries[i].Key, k)
		}
	}
	return nil
}
