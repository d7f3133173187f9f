package main

import (
	"math"
	"testing"
)

// syntheticProbe models a server with a knee: below it p99 rises as
// 1/(knee-rate), above it the backlog grows without bound.
func syntheticProbe(knee, c float64, calls *int) func(float64) probeOutcome {
	return func(rate float64) probeOutcome {
		*calls++
		p := probeOutcome{rate: rate, achieved: rate, deliveryRatio: 1}
		if rate >= knee {
			p.p99Ms, p.lagGrew = math.Inf(1), true
			return p
		}
		p.p99Ms = 1 + c/(knee-rate)
		return p
	}
}

func TestCapacityBisectionFindsKnee(t *testing.T) {
	// p99 = 25 ms where 50000/(knee-rate) = 24, i.e. rate = knee - 2083.
	for _, knee := range []float64{3000, 9000, 40000} {
		calls := 0
		probe := syntheticProbe(knee, 50000, &calls)
		limitRate := knee - 50000/(latencyLimitMs-1)
		best, probes, ok := searchCapacity(probe(1000), probe, 1e6, 20)
		if !ok {
			t.Fatalf("knee %v: no rate passed", knee)
		}
		if best.achieved > limitRate || best.achieved < limitRate/bracketRatio {
			t.Errorf("knee %v: capacity %v, want within a tenth below %v", knee, best.achieved, limitRate)
		}
		if len(probes) > 16 {
			t.Errorf("knee %v: %d probes", knee, len(probes))
		}
	}
}

func TestCapacityHalvesWhenBaseFails(t *testing.T) {
	calls := 0
	probe := syntheticProbe(600, 500, &calls)
	limitRate := 600 - 500/(latencyLimitMs-1)
	best, _, ok := searchCapacity(probe(1000), probe, 1e6, 20)
	if !ok || best.rate > limitRate || best.rate < limitRate/bracketRatio {
		t.Fatalf("capacity %v ok %v, want within a tenth below %v", best.rate, ok, limitRate)
	}
}

func TestCapacityFailedDeliveriesAreNotSustained(t *testing.T) {
	p := probeOutcome{p99Ms: 1, deliveryRatio: 0.998}
	if p.sustained() {
		t.Error("a rate losing 0.2% of deliveries counted as sustained")
	}
}
