package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a tail read off fewer samples is noise, not a number.
const minBeyond = 10

// rankOf is the 1-based nearest-rank position of quantile q in n
// sorted samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supports reports whether n samples hold at least minBeyond samples
// beyond the q-quantile.
func supports(n int, q float64) bool {
	return n > 0 && n-rankOf(n, q) >= minBeyond
}

// tailQuantile picks the highest of the candidate quantiles that n
// samples support, or 0 when none is.
func tailQuantile(n int, candidates ...float64) float64 {
	best := 0.0
	for _, q := range candidates {
		if supports(n, q) && q > best {
			best = q
		}
	}
	return best
}

// minSamples is the smallest sample count that supports quantile q.
func minSamples(q float64) int {
	n := minBeyond
	for !supports(n, q) {
		n++
	}
	return n
}

// latencies is the sample of one timed operation kind. A failed
// operation counts as missing any latency limit: it sorts above every
// success and reads as +Inf.
type latencies struct {
	ok     []time.Duration
	failed int
	sorted bool
}

func (l *latencies) add(d time.Duration) { l.ok = append(l.ok, d); l.sorted = false }
func (l *latencies) fail()               { l.failed++ }
func (l *latencies) n() int              { return len(l.ok) + l.failed }

// quantile returns the nearest-rank q-quantile in milliseconds, +Inf
// when it falls on a failed operation and NaN on an empty sample.
func (l *latencies) quantile(q float64) float64 {
	n := l.n()
	if n == 0 {
		return math.NaN()
	}
	if !l.sorted {
		sort.Slice(l.ok, func(i, j int) bool { return l.ok[i] < l.ok[j] })
		l.sorted = true
	}
	r := rankOf(n, q)
	if r > len(l.ok) {
		return math.Inf(1)
	}
	return ms(l.ok[r-1])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opRecord is one timed operation as the statistics see it.
type opRecord struct {
	name   string   // the image it compiled or read
	iv     interval // when it ran; its duration is its latency
	failed bool
	units  float64 // pulses it completed
}

// latenciesOf collects the operations' latencies.
func latenciesOf(ops []opRecord) *latencies {
	l := &latencies{ok: make([]time.Duration, 0, len(ops))}
	for _, op := range ops {
		if op.failed {
			l.fail()
		} else {
			l.add(op.iv.dur())
		}
	}
	return l
}

// runRate is the run's completed units per second over the wall time
// its operations cover (see throughput). A failed operation adds its
// time but no units.
func runRate(ops []opRecord) float64 {
	units := 0.0
	ivs := make([]interval, 0, len(ops))
	for _, op := range ops {
		if !op.failed {
			units += op.units
		}
		ivs = append(ivs, op.iv)
	}
	return throughput(units, ivs)
}

// interval is one span of wall time, as offsets from a run's epoch.
type interval struct{ start, end time.Duration }

func (iv interval) dur() time.Duration { return iv.end - iv.start }

// unionLen is the wall time covered by at least one interval: the
// length of their union, so overlapping intervals count once.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.dur()
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.dur()
}

// selfTime is a span's duration minus the time its children cover.
// Children may overlap one another (parallel workers), so they are
// united first rather than summed.
func selfTime(span time.Duration, children []interval) time.Duration {
	return span - unionLen(children)
}

// throughput is units of work per second of wall time, where the wall
// time is the union of the operations' intervals: gaps where no
// operation was running (result checks between operations) are not
// counted.
func throughput(units float64, ops []interval) float64 {
	w := unionLen(ops)
	if w <= 0 {
		return 0
	}
	return units / w.Seconds()
}

// quantileOf is the nearest-rank q-quantile of a float sample, NaN
// when empty.
func quantileOf(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rankOf(len(s), q)-1]
}

func median(v []float64) float64 { return quantileOf(v, 0.5) }

// tracer records spans of one run: per operation, per layer name, the
// intervals the benchmark's calls into that layer took. It is off in
// untraced runs, where record is a no-op and costs one branch.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans map[string]map[int][]interval // layer -> op -> intervals
}

func newTracer(on bool, epoch time.Time) *tracer {
	return &tracer{on: on, epoch: epoch, spans: map[string]map[int][]interval{}}
}

func (t *tracer) at(tm time.Time) time.Duration { return tm.Sub(t.epoch) }

// record files one span of layer under operation op.
func (t *tracer) record(layer string, op int, start, end time.Time) {
	if !t.on {
		return
	}
	iv := interval{t.at(start), t.at(end)}
	t.mu.Lock()
	m := t.spans[layer]
	if m == nil {
		m = map[int][]interval{}
		t.spans[layer] = m
	}
	m[op] = append(m[op], iv)
	t.mu.Unlock()
}

// time runs fn and records it as a span of layer under op.
func (t *tracer) time(layer string, op int, fn func()) {
	if !t.on {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.record(layer, op, start, time.Now())
}

// parallel runs fn(0..n-1) on w goroutines, as the Service's worker
// pool does, recording each call as a span of layer under op. The
// spans of different workers overlap, so the layer's time per
// operation is their union: the wall time the stage held the pool.
func (t *tracer) parallel(layer string, op, w, n int, fn func(i int)) {
	var wg sync.WaitGroup
	var next sync.Mutex
	i := 0
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= n {
					return
				}
				t.time(layer, op, func() { fn(k) })
			}
		}()
	}
	wg.Wait()
}

// perOp returns, for every operation that has spans of layer, the wall
// time those spans cover.
func (t *tracer) perOp(layer string) map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]time.Duration{}
	for op, ivs := range t.spans[layer] {
		out[op] = unionLen(ivs)
	}
	return out
}

// children returns op's spans across the given child layers.
func (t *tracer) children(op int, layers ...string) []interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []interval
	for _, l := range layers {
		out = append(out, t.spans[l][op]...)
	}
	return out
}

// layerStat is one layer's time per operation: the median, the
// number of operations it was measured on, and the sum over them.
type layerStat struct {
	p50   time.Duration
	count int
	total time.Duration
}

// stat summarizes a layer's per-operation times.
func (t *tracer) stat(layer string) layerStat { return statOf(t.perOp(layer)) }

func statOf(per map[int]time.Duration) layerStat {
	v := make([]float64, 0, len(per))
	var total time.Duration
	for _, d := range per {
		v = append(v, float64(d))
		total += d
	}
	return layerStat{p50: time.Duration(median(v)), count: len(v), total: total}
}

// selfStat is a layer's self time per operation: its own span minus
// the union of the given child layers' spans.
func (t *tracer) selfStat(layer string, childLayers ...string) layerStat {
	per := t.perOp(layer)
	self := make(map[int]time.Duration, len(per))
	for op, d := range per {
		self[op] = selfTime(d, t.children(op, childLayers...))
	}
	return statOf(self)
}
