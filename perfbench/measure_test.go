package main

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"compaqt"
	"compaqt/qctrl"
)

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true}, {99, 0.9, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{20, 0.5, true}, {19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if got := minSamples(0.9); got != 100 {
		t.Errorf("minSamples(0.9) = %d, want 100", got)
	}
	if got := minSamples(0.99); got != 1000 {
		t.Errorf("minSamples(0.99) = %d, want 1000", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0}, {150, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n, 0.9, 0.99, 0.999); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestFailedOperationMissesAnyLimit(t *testing.T) {
	var l latencies
	for i := 0; i < 89; i++ {
		l.add(time.Millisecond)
	}
	for i := 0; i < 11; i++ {
		l.fail()
	}
	if got := l.quantile(0.5); got != 1 {
		t.Errorf("p50 = %g ms, want 1", got)
	}
	// 11 of 100 failed: the p90 lands on a failure however fast the
	// successes were.
	if got := l.quantile(0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 = %g, want +Inf", got)
	}

	ops := make([]opRecord, 100)
	for i := range ops {
		ops[i] = opRecord{iv: interval{time.Duration(i) * time.Second, time.Duration(i)*time.Second + time.Millisecond}, units: 1}
	}
	for i := 0; i < 60; i++ {
		ops[i].failed = true
	}
	if got := quantileMetric("p50", ops, 0.5).value; !math.IsInf(got, 1) {
		t.Errorf("p50 with 60%% failed = %g, want +Inf", got)
	}
	// Failed operations take their time but complete no work: 40 units
	// over 100 ms of operations.
	if got := runRate(ops); math.Abs(got-400) > 1e-9 {
		t.Errorf("rate with the first 60%% failed = %g, want 400", got)
	}
}

func TestSelfTimeUnitesOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	children := []interval{{0, 4 * ms}, {2 * ms, 6 * ms}, {8 * ms, 9 * ms}, {3 * ms, 5 * ms}}
	if got := unionLen(children); got != 7*ms {
		t.Fatalf("union = %v, want 7ms", got)
	}
	if got := selfTime(10*ms, children); got != 3*ms {
		t.Errorf("self = %v, want 3ms (10ms span minus the 7ms its children cover)", got)
	}
	if got := selfTime(10*ms, nil); got != 10*ms {
		t.Errorf("self with no children = %v, want 10ms", got)
	}

	tr := newTracer(true, time.Unix(0, 0))
	at := func(d time.Duration) time.Time { return time.Unix(0, 0).Add(d) }
	tr.record("parent", 1, at(0), at(10*ms))
	for _, c := range children {
		tr.record("child", 1, at(c.start), at(c.end))
	}
	if got := tr.selfStat("parent", "child"); got.p50 != 3*ms || got.count != 1 {
		t.Errorf("traced self = %+v, want 3ms over 1 operation", got)
	}
}

func TestThroughputOverWallTime(t *testing.T) {
	s := time.Second
	if got := throughput(200, []interval{{0, s}, {s, 2 * s}}); got != 100 {
		t.Errorf("back to back: %g units/s, want 100", got)
	}
	// A gap with no operation running is not counted.
	if got := throughput(200, []interval{{0, s}, {2 * s, 3 * s}}); got != 100 {
		t.Errorf("with a gap: %g units/s, want 100", got)
	}
	if got := throughput(5, nil); got != 0 {
		t.Errorf("no operations: %g, want 0", got)
	}
}

func TestCorruptedImageByteFailsTheOperation(t *testing.T) {
	m := qctrl.Bogota()
	svc, err := compaqt.New(compaqt.WithMSETarget(5e-6))
	if err != nil {
		t.Fatal(err)
	}
	lib := m.Library()[:4]
	img, err := svc.CompileBatch(context.Background(), "probe", lib)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := img.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := digestOf(wire)
	if err := checkDigest(wire, want); err != nil {
		t.Fatalf("intact image: %v", err)
	}
	for _, pos := range []int{0, 7, len(wire) / 2, len(wire) - 1} {
		bad := append([]byte(nil), wire...)
		bad[pos] ^= 0x01
		if err := checkDigest(bad, want); err == nil {
			t.Errorf("byte %d flipped: image accepted", pos)
		}
	}

	// A failed image check fails every operation that compiled it.
	var ph opPhase
	ph.done("probe", interval{0, time.Millisecond}, len(lib), nil)
	ph.done("other", interval{0, time.Millisecond}, len(lib), nil)
	ph.done("probe", interval{time.Millisecond, 2 * time.Millisecond}, len(lib), nil)
	ph.failImage("probe", errors.New("corrupt"))
	if res := ph.result(5e-6, 1); res.attempted != 3 || res.failed != 2 || len(res.checkErrs) != 1 {
		t.Errorf("attempted %d failed %d errors %v, want 3, 2 and one error", res.attempted, res.failed, res.checkErrs)
	}
}

func TestUnpublishedImageFailsTheOperation(t *testing.T) {
	ctx := context.Background()
	lib := qctrl.Bogota().Library()
	svc, err := compaqt.New(compaqt.WithMSETarget(5e-6), compaqt.WithStore(t.TempDir(), 0))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Store().Close()
	img, err := svc.CompileBatch(ctx, "probe", lib[:4])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPublished(svc.Store(), "probe", img); err != nil {
		t.Fatalf("published image: %v", err)
	}
	// A compile whose write-through was skipped.
	if err := checkPublished(svc.Store(), "never-published", img); err == nil {
		t.Error("image missing from the store accepted")
	}
	nostore, err := compaqt.New(compaqt.WithMSETarget(5e-6))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPublished(nostore.Store(), "probe", img); err == nil {
		t.Error("image accepted with no store at all")
	}
	// The name bound to other bytes than the compile produced.
	other, err := svc.CompileBatch(ctx, "probe", lib[4:8])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPublished(svc.Store(), "probe", img); err == nil {
		t.Error("store bytes of another image accepted")
	}
	if err := checkPublished(svc.Store(), "probe", other); err != nil {
		t.Errorf("re-published image: %v", err)
	}
}
