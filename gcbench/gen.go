package main

import "time"

// clock is the generator's view of time. Tests substitute a fake to inject
// stalls; the benchmark uses the wall clock.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// genResult is what one open-loop run of the generator observed.
type genResult struct {
	// lagMs[i] is how late publish i started relative to its due time.
	lagMs []float64
	// callUs[i] is the wall time publish i spent inside the publish call.
	callUs []float64
	// start and end bracket the run: the first due time and the return of
	// the last publish call.
	start, end time.Time
}

// openLoop issues n publishes at rate per second, the i-th due at
// start + i/rate, from the calling goroutine. It never waits for a publish to be delivered: when a
// publish call or the scheduler runs late, the following publishes are
// issued back to back until the schedule is met again, so a stall shows up
// as lag and, through the due time the caller stamps into each payload, as
// latency.
func openLoop(clk clock, start time.Time, rate float64, n int, publish func(i int, due time.Time)) genResult {
	res := genResult{
		lagMs:  make([]float64, 0, n),
		callUs: make([]float64, 0, n),
		start:  start,
	}
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		now := clk.Now()
		if wait := due.Sub(now); wait > 0 {
			clk.Sleep(wait)
			now = clk.Now()
		}
		res.lagMs = append(res.lagMs, float64(now.Sub(due))/float64(time.Millisecond))
		publish(i, due)
		after := clk.Now()
		res.callUs = append(res.callUs, float64(after.Sub(now))/float64(time.Microsecond))
		res.end = after
	}
	if len(res.lagMs) == 0 {
		res.end = start
	}
	return res
}

// lagGrows reports whether the generator fell progressively further behind
// its schedule: the mean lag of the last quarter of the run exceeds that of
// the first quarter by more than slackMs. A rate the process cannot even
// issue is over capacity whatever the deliveries say.
func lagGrows(lagMs []float64, slackMs float64) bool {
	q := len(lagMs) / 4
	if q == 0 {
		return false
	}
	return mean(lagMs[len(lagMs)-q:]) > mean(lagMs[:q])+slackMs
}
