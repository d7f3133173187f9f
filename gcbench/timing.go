package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// capturePayloads is how many payload messages one endpoint keeps for the
// wire replay, and sendSamples how many call times.
const (
	capturePayloads = 512
	sendSamples     = 4096
)

// recording switches per-call sample collection on for the measured window
// of a traced run; set-up and warm-up traffic is not sampled.
type recording struct{ on atomic.Bool }

// timedTransport is the traced run's transport decorator. It times every
// Send and SendMany call and keeps a sample of the payloads and heartbeats
// it carries. Recv returns the inner channel unchanged and every optional
// interface the node probes is forwarded (see wrapTransport), so a traced
// node takes the same code paths as an untraced one.
type timedTransport struct {
	inner transport.Transport
	rec   *recording

	mu        sync.Mutex
	sendUs    *reservoir
	payloads  []wire.Message
	heartbeat *wire.Message // first heartbeat carrying health digests
}

func (t *timedTransport) Addr() string              { return t.inner.Addr() }
func (t *timedTransport) Recv() <-chan wire.Message { return t.inner.Recv() }
func (t *timedTransport) Close() error              { return t.inner.Close() }

func (t *timedTransport) Send(addr string, msg wire.Message) error {
	start := time.Now()
	err := t.inner.Send(addr, msg)
	t.observe(start, &msg)
	return err
}

func (t *timedTransport) observe(start time.Time, msg *wire.Message) {
	if !t.rec.on.Load() {
		return
	}
	us := float64(time.Since(start)) / float64(time.Microsecond)
	t.mu.Lock()
	t.sendUs.add(us)
	switch {
	case msg.Type == wire.TPayload && len(t.payloads) < capturePayloads:
		t.payloads = append(t.payloads, *msg)
	case msg.Type == wire.THeartbeat && len(msg.Health) > 0 && t.heartbeat == nil:
		hb := *msg
		t.heartbeat = &hb
	}
	t.mu.Unlock()
}

// samples returns the recorded call times and captures.
func (t *timedTransport) samples() (sendUs []float64, payloads []wire.Message, heartbeat *wire.Message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.sendUs.vals...), append([]wire.Message(nil), t.payloads...), t.heartbeat
}

// timedMem forwards the optional interfaces of *transport.MemEndpoint.
type timedMem struct {
	*timedTransport
	mem *transport.MemEndpoint
}

func (t *timedMem) SendMany(addrs []string, msg wire.Message, each func(string, error)) {
	start := time.Now()
	t.mem.SendMany(addrs, msg, each)
	t.observe(start, &msg)
}

func (t *timedMem) QueueDepth() int                  { return t.mem.QueueDepth() }
func (t *timedMem) QueueCapacity() int               { return t.mem.QueueCapacity() }
func (t *timedMem) DropStats() transport.DropStats   { return t.mem.DropStats() }
func (t *timedMem) InboxQueue() *transport.PrioInbox { return t.mem.InboxQueue() }

// timedTCP forwards the optional interfaces of *transport.TCPTransport.
type timedTCP struct {
	*timedTransport
	tcp *transport.TCPTransport
}

func (t *timedTCP) SendMany(addrs []string, msg wire.Message, each func(string, error)) {
	start := time.Now()
	t.tcp.SendMany(addrs, msg, each)
	t.observe(start, &msg)
}

func (t *timedTCP) QueueDepth() int                        { return t.tcp.QueueDepth() }
func (t *timedTCP) QueueCapacity() int                     { return t.tcp.QueueCapacity() }
func (t *timedTCP) DropStats() transport.DropStats         { return t.tcp.DropStats() }
func (t *timedTCP) InboxQueue() *transport.PrioInbox       { return t.tcp.InboxQueue() }
func (t *timedTCP) Breakers() []transport.BreakerInfo      { return t.tcp.Breakers() }
func (t *timedTCP) OutboundQueueDepth() int                { return t.tcp.OutboundQueueDepth() }
func (t *timedTCP) CoalesceStats() transport.CoalesceStats { return t.tcp.CoalesceStats() }

// wrapTransport decorates tr with call timing. Only the two transports the
// benchmark runs are supported, each with exactly its own interface set.
func wrapTransport(tr transport.Transport, rec *recording) (transport.Transport, error) {
	base := &timedTransport{inner: tr, rec: rec, sendUs: newReservoir(sendSamples)}
	switch t := tr.(type) {
	case *transport.MemEndpoint:
		return &timedMem{timedTransport: base, mem: t}, nil
	case *transport.TCPTransport:
		return &timedTCP{timedTransport: base, tcp: t}, nil
	}
	return nil, fmt.Errorf("timing decorator: unsupported transport %T", tr)
}
