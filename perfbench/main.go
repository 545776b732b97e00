// Command perfbench is compaqt's end-to-end benchmark. It runs one
// workload against the real program, checks every output, and prints
// the benchmark's metrics by name and unit, the same set on every
// workload; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 912, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload recalibrate --seed 1 --seconds 20 --trace 0
//
// Workloads: recalibrate drives the compaqt library in process;
// circuit-mix and fleet-read drive a compaqt-serve process over
// loopback. With --trace 0 the run reports the end-to-end metrics.
// With --trace 1 it measures half the time untraced and half traced,
// prints both end-to-end sets and their difference (the tracing
// overhead), each layer's self time as a share of the operation, and
// reports the per-layer metrics. Layer spans are recorded by this
// program around its own calls into each layer's public functions;
// the program under test carries no instrumentation. See README.md for
// the workloads, metrics and the layer predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runCtx is what every workload receives.
type runCtx struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	serveBin string
	dir      string // scratch directory of this run, removed at exit
	hc       *http.Client
	epoch    time.Time
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	n          int    // samples it was computed from, 0 when not a sample statistic
	note       string // printed beside the value
}

// phase is the outcome of one timed phase of a workload.
type phase struct {
	e2e       []metric
	attempted int
	failed    int
	// checkErrs describes the first failed checks.
	checkErrs []string
}

// report is a workload's full result.
type report struct {
	setup    metric   // setup_s, added to every e2e set
	measured phase    // untraced phase
	traced   *phase   // traced phase, with --trace 1
	layers   []metric // the per-layer metrics every workload reports
	detail   []metric // layer metrics of this workload only, printed
	shares   []metric
	lines    []string // workload-specific detail
}

var workloads = map[string]func(*runCtx) (*report, error){
	"recalibrate": runRecalibrate,
	"circuit-mix": runCircuitMix,
	"fleet-read":  runFleetRead,
}

func main() {
	workload := flag.String("workload", "", "workload to run: recalibrate, circuit-mix or fleet-read")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	serveBin := flag.String("serve", "", "path of the compaqt-serve binary")
	work := flag.String("work", ".bench_build/runs", "parent directory of the run's scratch directory")
	flag.Parse()

	run, ok := workloads[*workload]
	switch {
	case !ok:
		fatalf("unknown workload %q (want recalibrate, circuit-mix or fleet-read)", *workload)
	case *seconds < 1:
		fatalf("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		fatalf("--trace must be 0 or 1")
	case *serveBin == "":
		fatalf("--serve is required")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatalf("%v", err)
	}
	dir, err := os.MkdirTemp(*work, *workload+"-")
	if err != nil {
		fatalf("%v", err)
	}
	rc := &runCtx{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		serveBin: *serveBin,
		dir:      dir,
		hc:       newHTTPClient(),
		epoch:    time.Now(),
	}
	env := environment(rc, *workload)
	steal0, _ := readCPUStat()
	rep, err := run(rc)
	steal1, _ := readCPUStat()
	rc.hc.CloseIdleConnections()
	os.RemoveAll(dir)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	env["cpu_steal_share"] = steal1.stealShare(steal0)
	printReport(os.Stdout, *workload, env, rep)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// closedLoop runs one caller, issuing operation seq = 0, 1, ... as soon
// as the previous one returns, until the deadline has passed and at
// least minOps operations have run. It stops only after a whole number
// of periods, so a workload cycling through a mix of period requests
// measures whole cycles; past a hard cap of three times the duration
// it stops regardless.
func closedLoop(d time.Duration, minOps, period int, op func(seq int)) {
	start := time.Now()
	deadline, hardCap := start.Add(d), start.Add(3*d)
	for seq := 0; ; seq++ {
		now := time.Now()
		if now.After(hardCap) || (now.After(deadline) && seq >= minOps && seq%period == 0) {
			return
		}
		op(seq)
	}
}

// loadHeapLimit is the heap size past which the load process of a
// served workload collects garbage (see quietCollector).
const loadHeapLimit = 256 << 20

// quietCollector makes the load process of a served workload collect
// garbage only past loadHeapLimit, about once a second, instead of
// every few tens of milliseconds at the default GOGC. The collector's
// pauses and mark worker compete with the server for the host's two
// vCPUs while a request is in flight, so the server's latencies would
// read the load process's collector. The in-process workload keeps the
// default: there the collector is the program's own.
func quietCollector() {
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(loadHeapLimit)
}

// prepare settles the process before a timed phase: a collection now
// keeps set-up garbage out of the measurement.
func prepare() {
	runtime.GC()
	runtime.GC()
}

// quantileMetric reports a latency quantile over all the run's
// operations, or explains why the sample does not support it. Every
// operation counts, those the host slowed too, so a regression that
// adds occasional stalls shows. The note also names the highest tail
// the sample supports.
func quantileMetric(name string, ops []opRecord, q float64) metric {
	m := metric{name: name, unit: "ms", n: len(ops)}
	if !supports(len(ops), q) {
		m.value = math.NaN()
		m.note = fmt.Sprintf("unsupported: %d samples, need %d", len(ops), minSamples(q))
		return m
	}
	all := latenciesOf(ops)
	m.value = all.quantile(q)
	m.note = fmt.Sprintf("%d samples beyond it", len(ops)-rankOf(len(ops), q))
	if t := tailQuantile(len(ops), 0.9, 0.99, 0.999); t > q {
		m.note += fmt.Sprintf("; run's tail p%g = %.4g ms", 100*t, all.quantile(t))
	}
	return m
}

// printReport writes the human-readable lines and, last, the JSON
// result line.
func printReport(w *os.File, workload string, env map[string]any, rep *report) {
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(w, "env %s\n", envJSON)
	for _, l := range rep.lines {
		fmt.Fprintf(w, "%s: %s\n", workload, l)
	}
	e2e := append([]metric{rep.setup}, rep.measured.e2e...)
	if rep.traced == nil {
		for _, m := range e2e {
			fmt.Fprintf(w, "%s: %-22s %s\n", workload, m.name, formatMetric(m))
		}
	} else {
		fmt.Fprintf(w, "%s: %-22s %s\n", workload, rep.setup.name, formatMetric(rep.setup))
		fmt.Fprintf(w, "%s: %-22s %16s %16s %9s\n", workload, "end-to-end", "untraced", "traced", "overhead")
		traced := map[string]metric{}
		for _, m := range rep.traced.e2e {
			traced[m.name] = m
		}
		for _, m := range rep.measured.e2e {
			t := traced[m.name]
			overhead := "n/a"
			if d := (t.value - m.value) / m.value; !math.IsNaN(d) {
				overhead = fmt.Sprintf("%.1f%%", 100*d)
			}
			fmt.Fprintf(w, "%s: %-22s %16s %16s %9s\n", workload, m.name+" ("+m.unit+")",
				formatValue(m), formatValue(t), overhead)
		}
		for _, m := range rep.layers {
			fmt.Fprintf(w, "%s: layer %-26s %s\n", workload, m.name, formatMetric(m))
		}
		for _, m := range rep.detail {
			fmt.Fprintf(w, "%s: layer %-26s %s  (this workload only)\n", workload, m.name, formatMetric(m))
		}
		for _, m := range rep.shares {
			fmt.Fprintf(w, "%s: self share %-21s %5.1f%% of the operation\n", workload, m.name, 100*m.value)
		}
	}
	res := rep.measured
	checkErrs := res.checkErrs
	metrics := e2e
	if rep.traced != nil {
		// The traced run answers for its traced phase's operations too.
		res.attempted += rep.traced.attempted
		res.failed += rep.traced.failed
		checkErrs = append(checkErrs, rep.traced.checkErrs...)
		metrics = rep.layers
	}
	fmt.Fprintf(w, "%s: operations attempted %d, failed %d\n", workload, res.attempted, res.failed)
	for _, e := range checkErrs {
		fmt.Fprintf(w, "%s: check failed: %s\n", workload, e)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   res.failed == 0 && len(checkErrs) == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]map[string]any{},
	}
	for _, m := range metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no NaN or Inf; an unsupported or failed value
			// is reported as a failed run instead.
			out.Correct = false
			v = -1
		}
		out.Metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", b)
}

func formatValue(m metric) string {
	if math.IsNaN(m.value) {
		return "n/a"
	}
	return fmt.Sprintf("%.6g", m.value)
}

func formatMetric(m metric) string {
	s := fmt.Sprintf("%s %s", formatValue(m), m.unit)
	if m.n > 0 {
		s += fmt.Sprintf("  (n=%d)", m.n)
	}
	if m.note != "" {
		s += "  " + m.note
	}
	return s
}

// environment describes the machine and inputs of a run.
func environment(rc *runCtx, workload string) map[string]any {
	return map[string]any{
		"workload":   workload,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       rc.seed,
		"seconds":    rc.seconds.Seconds(),
		"trace":      rc.trace,
		"commit":     sourceDigest("."),
		"start":      rc.epoch.UTC().Format(time.RFC3339Nano),
	}
}

// sourceDigest identifies the source tree the benchmark was built from
// when no version-control metadata is at hand: a sha256 over the path
// and content of every Go source and go.mod file, hidden directories
// (build outputs) excluded.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := newSHA()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("src-sha256:%x", h.Sum(nil))[:23]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var unitNames = map[time.Duration]string{time.Nanosecond: "ns", time.Microsecond: "us", time.Millisecond: "ms"}

// timeMetric reports a layer's median time per operation in unit.
func timeMetric(name string, s layerStat, unit time.Duration) metric {
	return metric{name: name, unit: unitNames[unit], value: float64(s.p50) / float64(unit), n: s.count, note: "p50 per operation"}
}

func countMetric(name, unit string, v float64, note string) metric {
	return metric{name: name, unit: unit, value: v, note: note}
}

// share is a layer's self time as a share of the operations' time.
func share(layer string, self, op time.Duration) metric {
	return metric{name: layer, value: ratio(float64(self), float64(op))}
}
