package main

import (
	"math/rand"
	"sync"

	"groupcast/internal/trace"
)

// captureArrivals bounds the payload arrival order kept for the
// reliable-window replay.
const captureArrivals = 4096

// reservoir keeps a uniform sample of at most cap values from a stream of
// unknown length (Algorithm R), so what a traced run retains does not grow
// the heap the collector paces itself by.
type reservoir struct {
	cap  int
	seen int
	vals []float64
	rng  *rand.Rand
}

func newReservoir(capacity int) *reservoir {
	return &reservoir{cap: capacity, rng: rand.New(rand.NewSource(1))}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, v)
		return
	}
	if j := r.rng.Intn(r.seen); j < r.cap {
		r.vals[j] = v
	}
}

// streamKey names one (receiving node, source) payload stream.
type streamKey struct{ node, source string }

// layerSink is the trace.Sink of the traced run. It folds the events every
// node's Config.Tracer emits into per-layer samples while recording is on,
// instead of keeping the events.
type layerSink struct {
	rec *recording

	mu       sync.Mutex
	handleUs *reservoir // payload recv: the node's handler time
	queueUs  *reservoir // payload recv: previous hop's hand-off to handler start
	hops     struct{ sum, n float64 }
	// stream is the first payload stream seen in the first base window;
	// arrivals is its arrival order, for the reliable-window replay, and
	// captured is set once that window has ended.
	stream   *streamKey
	arrivals []uint64
	captured bool
}

func newLayerSink(rec *recording) *layerSink {
	return &layerSink{rec: rec, handleUs: newReservoir(1 << 16), queueUs: newReservoir(1 << 16)}
}

// Record implements trace.Sink.
func (s *layerSink) Record(ev trace.Event) {
	if !s.rec.on.Load() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case trace.KindRecv:
		if ev.Msg != "payload" {
			return
		}
		s.handleUs.add(float64(ev.HandleUS))
		s.queueUs.add(float64(ev.QueueUS))
		k := streamKey{ev.Node, ev.Source}
		if s.stream == nil {
			s.stream = &k
		}
		if !s.captured && k == *s.stream && len(s.arrivals) < captureArrivals {
			s.arrivals = append(s.arrivals, ev.Seq)
		}
	case trace.KindDeliver:
		s.hops.sum += float64(ev.Hop)
		s.hops.n++
	}
}

// endWindow closes the arrival capture once a base window has supplied one.
func (s *layerSink) endWindow() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.captured = s.stream != nil
}
