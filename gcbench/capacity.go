package main

import "math"

// Capacity search parameters, fixed so every commit is judged at the same
// limit.
const (
	// latencyLimitMs is the deliver_p99_ms a rate must meet to count as
	// sustained. Below the knee, collection pauses and host stalls swing a
	// probe's p99 between 5 and 40 ms; at 50 ms queueing, not pauses, sets
	// it.
	latencyLimitMs = 50.0
	// minDeliveryRatio is the share of owed deliveries a sustained rate must
	// make.
	minDeliveryRatio = 0.999
	// lagSlackMs is how far the generator may fall further behind between
	// the first and last quarter of a probe. Below the knee, one host stall
	// late in a probe raises the last quarter's mean lag by a few ms; past
	// it, the lag grows by tens of ms or more within one probe.
	lagSlackMs = 10.0
	// growth is the step up from a passing rate while no probe has failed.
	growth = 1.5
	// bracketRatio ends the bisection: the passing and failing rates are
	// within 5% of each other.
	bracketRatio = 1.05
)

// probeOutcome is one fixed-rate window of the capacity search.
type probeOutcome struct {
	// rate is the offered rate; achieved is publishes issued per second of
	// the window as measured.
	rate, achieved float64
	p99Ms          float64
	deliveryRatio  float64
	lagGrew        bool
}

// sustained applies the capacity criteria.
func (p probeOutcome) sustained() bool {
	return p.p99Ms <= latencyLimitMs && p.deliveryRatio >= minDeliveryRatio && !p.lagGrew
}

// searchCapacity finds the highest sustained rate by log-scale bisection.
// base is the outcome of the first probe. From there the rate grows by
// growth until a probe fails (or maxRate is reached), then the bracket is
// bisected at its geometric mean until it is narrower than bracketRatio, or
// maxProbes probes have run. When even the base rate fails, the rate halves
// until a probe passes. The result is the measured rate of the highest
// passing probe; ok is false when none passed.
func searchCapacity(base probeOutcome, probe func(rate float64) probeOutcome,
	maxRate float64, maxProbes int) (best probeOutcome, probes []probeOutcome, ok bool) {
	run := func(rate float64) probeOutcome {
		p := probe(rate)
		probes = append(probes, p)
		return p
	}
	lo, hi := base, probeOutcome{}
	haveLo, haveHi := base.sustained(), false
	if !haveLo {
		hi, haveHi = base, true
		for r := base.rate / 2; r >= base.rate/16 && len(probes) < maxProbes; r /= 2 {
			if p := run(r); p.sustained() {
				lo, haveLo = p, true
				break
			} else {
				hi = p
			}
		}
		if !haveLo {
			return probeOutcome{}, probes, false
		}
	}
	for !haveHi && len(probes) < maxProbes && lo.rate < maxRate {
		if p := run(math.Min(lo.rate*growth, maxRate)); p.sustained() {
			lo = p
		} else {
			hi, haveHi = p, true
		}
	}
	for haveHi && hi.rate/lo.rate > bracketRatio && len(probes) < maxProbes {
		if p := run(math.Sqrt(lo.rate * hi.rate)); p.sustained() {
			lo = p
		} else {
			hi = p
		}
	}
	return lo, probes, true
}
