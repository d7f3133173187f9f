package main

import (
	"math"
	"testing"
	"time"
)

// fakeClock advances only when slept on or told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// TestDueTimeLatencyUnderStall injects a 20 ms stall into one publish call
// of a 1000/s open loop whose deliveries are instant. Latency measured from
// the due time must carry the stall into the publishes queued behind it,
// and the generator must report the lag, while latency measured from the
// actual send would read zero.
func TestDueTimeLatencyUnderStall(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	o := newOracle(groupID, false, 64, 1)
	o.epoch = clk.now
	o.sources = []string{"pub"}
	m := &member{addr: "sub"}
	const n, stallAt = 100, 10
	reserve([]*member{m}, n)
	g := openLoop(clk, clk.now, 1000, n, func(i int, due time.Time) {
		if err := o.publish(0, due, func(b []byte) error {
			if i == stallAt {
				clk.Sleep(20 * time.Millisecond)
			}
			o.deliver(m, groupID, "pub", b, clk.now)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if v := o.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	w := o.analyze([]*member{m}, 0, n)
	if w.owed != n || w.delivered != n {
		t.Fatalf("owed %d delivered %d, want %d", w.owed, w.delivered, n)
	}
	// Publish stallAt+1 was due 1 ms after the stalled one began and went
	// out 20 ms after it: 19 ms late, all of it latency.
	if got := w.latMs[stallAt+1]; math.Abs(got-19) > 0.01 {
		t.Errorf("latency after stall = %v ms, want 19", got)
	}
	if got := g.lagMs[stallAt+1]; math.Abs(got-19) > 0.01 {
		t.Errorf("lag after stall = %v ms, want 19", got)
	}
	if got := maxOf(g.lagMs); math.Abs(got-19) > 0.01 {
		t.Errorf("max lag = %v ms, want 19", got)
	}
	// The backlog drains: the generator catches up within 20 publishes
	// and the run as a whole does not count as a growing lag.
	if got := w.latMs[stallAt+20]; got != 0 {
		t.Errorf("latency 20 publishes after the stall = %v ms, want 0", got)
	}
	if lagGrows(g.lagMs, lagSlackMs) {
		t.Error("a single stall read as growing lag")
	}
	if math.Abs(g.callUs[stallAt]-20000) > 1 {
		t.Errorf("stalled call = %v µs, want 20000", g.callUs[stallAt])
	}
}

func TestLagGrows(t *testing.T) {
	steady := make([]float64, 100)
	growing := make([]float64, 100)
	for i := range growing {
		growing[i] = float64(i) * 0.1
	}
	if lagGrows(steady, 1) {
		t.Error("steady lag read as growing")
	}
	if !lagGrows(growing, 1) {
		t.Error("growing lag not detected")
	}
}
