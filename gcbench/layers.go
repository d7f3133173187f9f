package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"groupcast/internal/reliable"
	"groupcast/internal/wire"
)

// replayOps is how many operations each replay measurement times.
const replayOps = 50000

// loopReader serves a byte stream of whole frames over and over, so a
// FrameReader keeps its warm intern table for as many frames as a replay
// needs, as on a long-lived link.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

// perOp runs op n times and returns ns and heap allocations per op. The
// fleet is closed before any replay, so the counts are op's own.
func perOp(n int, op func(i int) error) (nsPerOp, allocsPerOp float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// replayWire times the codec on the payload messages the traced run
// captured at its transports: encode, decode from a frame stream, and one
// relay hop (decode, restamp, encode once into a pooled buffer), as
// BenchmarkRelayHopBinary defines it. It also sizes the health-digest
// piggyback of a captured heartbeat.
func replayWire(res *result, timed []*timedTransport) error {
	var msgs []wire.Message
	var hb *wire.Message
	for _, t := range timed {
		_, p, h := t.samples()
		msgs = append(msgs, p...)
		if hb == nil {
			hb = h
		}
	}
	if hb != nil {
		with, err := wire.EncodeMessage(hb)
		if err != nil {
			return fmt.Errorf("encode heartbeat: %w", err)
		}
		bare := *hb
		bare.Health = nil
		without, err := wire.EncodeMessage(&bare)
		if err != nil {
			return fmt.Errorf("encode heartbeat: %w", err)
		}
		res.set("wire.heartbeat_health_bytes", float64(len(with)-len(without)))
	}
	if len(msgs) == 0 {
		return nil
	}

	var stream []byte
	for i := range msgs {
		var err error
		if stream, err = wire.AppendMessage(stream, &msgs[i]); err != nil {
			return fmt.Errorf("encode captured payload: %w", err)
		}
	}
	res.set("wire.frame_bytes.payload", float64(len(stream))/float64(len(msgs)))

	buf := make([]byte, 0, 2*len(stream)/len(msgs)+64)
	encNs, _, err := perOp(replayOps, func(i int) error {
		var err error
		buf, err = wire.AppendMessage(buf[:0], &msgs[i%len(msgs)])
		return err
	})
	if err != nil {
		return fmt.Errorf("encode replay: %w", err)
	}
	res.set("wire.encode_ns.payload", encNs)

	fr := wire.NewFrameReader(&loopReader{data: stream})
	var got wire.Message
	for range msgs { // one pass warms the reader's intern table
		if err := fr.ReadMessage(&got); err != nil {
			return fmt.Errorf("decode replay: %w", err)
		}
	}
	decNs, decAllocs, err := perOp(replayOps, func(int) error { return fr.ReadMessage(&got) })
	if err != nil {
		return fmt.Errorf("decode replay: %w", err)
	}
	res.set("wire.decode_ns.payload", decNs)
	res.set("wire.decode_allocs.payload", decAllocs)

	_, relayAllocs, err := perOp(replayOps, func(int) error {
		if err := fr.ReadMessage(&got); err != nil {
			return err
		}
		got.Relay = got.From
		got.Hops++
		frame, err := wire.AppendMessage(wire.GetEncodeBuffer(), &got)
		wire.PutEncodeBuffer(frame)
		return err
	})
	if err != nil {
		return fmt.Errorf("relay replay: %w", err)
	}
	res.set("wire.relay_allocs", relayAllocs)
	return nil
}

// replayReliable replays one captured payload arrival order through a fresh
// receive window of the workload's delivery mode, as a node's handler feeds
// it.
func replayReliable(res *result, arrivals []uint64, spec fleetSpec) error {
	if len(arrivals) == 0 {
		return nil
	}
	ordered := spec.mode == wire.ReliableOrdered
	reliableMode := spec.mode != wire.BestEffort
	data := bytes.Repeat([]byte{0xA5}, spec.payload)
	var w *reliable.SourceWindow
	now := time.Now()
	ns, allocs, err := perOp(replayOps, func(i int) error {
		k := i % len(arrivals)
		if k == 0 {
			w = reliable.NewSourceWindow(reliable.DefaultWindowSpan, reliable.DefaultCachePayloads, ordered, reliableMode)
		}
		var r reliable.ObserveResult
		w.ObserveItem(arrivals[k], reliable.Item{Data: data, OriginAt: now}, now, &r)
		return nil
	})
	if err != nil {
		return err
	}
	res.set("reliable.observe_ns", ns)
	res.set("reliable.observe_allocs", allocs)
	return nil
}
