package main

import (
	"fmt"

	"compaqt"
)

// opPhase accumulates the end-to-end sample of one timed phase: every
// operation, and the compression and fidelity figures of the images
// the phase's operations produced or read.
type opPhase struct {
	ops    []opRecord
	orig   int // Q1.15 words of the checked images
	packed int // packed words of the checked images
	worst  float64
	checks checkLog
}

// done files one operation on the named image; err is its failed
// check, if any.
func (p *opPhase) done(name string, iv interval, pulses int, err error) {
	if err != nil {
		p.checks.add(err)
	}
	p.ops = append(p.ops, opRecord{name: name, iv: iv, units: float64(pulses), failed: err != nil})
}

// failImage fails every operation on the named image, once a check of
// the image itself found it wrong.
func (p *opPhase) failImage(name string, err error) {
	p.checks.add(err)
	for i := range p.ops {
		if p.ops[i].name == name {
			p.ops[i].failed = true
		}
	}
}

// image folds a checked image's compression and fidelity figures in.
func (p *opPhase) image(img *compaqt.Image, mse float64) {
	o, k := packedWords(img)
	p.orig += o
	p.packed += k
	p.worst = max(p.worst, mse)
}

// result turns the sample into the end-to-end metrics every workload
// reports. target is the MSE target the images were compiled under;
// rssMB is the program process's peak resident set.
func (p *opPhase) result(target, rssMB float64) phase {
	failed := 0
	for _, op := range p.ops {
		if op.failed {
			failed++
		}
	}
	return phase{
		e2e: []metric{
			quantileMetric("op_ms.p50", p.ops, 0.5),
			quantileMetric("op_ms.p90", p.ops, 0.9),
			{name: "pulses_per_s", unit: "pulses/s", value: runRate(p.ops), n: len(p.ops)},
			{name: "packed_ratio", unit: "x", value: ratio(float64(p.orig), float64(p.packed)),
				note: fmt.Sprintf("%d / %d words", p.orig, p.packed)},
			{name: "mse_budget_use", unit: "ratio", value: p.worst / target,
				note: fmt.Sprintf("worst MSE %.4g, target %.4g", p.worst, target)},
			{name: "rss_mb", unit: "MB", value: rssMB},
		},
		attempted: len(p.ops),
		failed:    failed,
		checkErrs: p.checks.errs,
	}
}

// checkMSE fails an image whose worst entry exceeds the budget.
func checkMSE(name string, worst, target float64) error {
	if worst > target {
		return fmt.Errorf("image %q: worst MSE %.4g exceeds the target %.4g", name, worst, target)
	}
	return nil
}

// median of setup repetitions, as the setup_s metric.
func setupMetric(secs []float64, what string) metric {
	return metric{name: "setup_s", unit: "s", value: median(secs), n: len(secs),
		note: fmt.Sprintf("median of %d set-ups (%.4g-%.4g s): %s", len(secs), quantileOf(secs, 0), quantileOf(secs, 1), what)}
}
