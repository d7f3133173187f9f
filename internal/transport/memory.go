package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"groupcast/internal/wire"
)

// MemNetwork is an in-process message fabric: endpoints register by name and
// exchange wire messages with configurable latency and loss. It lets tests
// run hundreds of live nodes in one process deterministically enough while
// exercising real concurrency.
type MemNetwork struct {
	mu        sync.Mutex
	endpoints map[string]*MemEndpoint
	latency   func(from, to string) time.Duration
	dropRate  float64
	rng       *rand.Rand
	seq       int

	inboxCapacity  int
	classlessInbox bool
}

// NewMemNetwork returns an empty fabric with zero latency and no loss.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{
		endpoints: make(map[string]*MemEndpoint),
		rng:       rand.New(rand.NewSource(1)),
	}
}

// SetInboxPolicy configures the inbound queue of endpoints created after
// the call: capacity (<= 0 means DefaultInboxCapacity) and the shed policy
// (classless reproduces the legacy single-FIFO queue that sheds arrivals
// regardless of class — the overload experiment's ablation baseline).
func (n *MemNetwork) SetInboxPolicy(capacity int, classless bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inboxCapacity = capacity
	n.classlessInbox = classless
}

// SetLatency installs a latency model (nil means instant delivery).
func (n *MemNetwork) SetLatency(f func(from, to string) time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = f
}

// SetDropRate makes the fabric drop messages uniformly at the given rate
// (failure injection for tests). Clamped to [0, 1].
func (n *MemNetwork) SetDropRate(rate float64, seed int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	n.dropRate = rate
	n.rng = rand.New(rand.NewSource(seed))
}

// Endpoint creates (or returns an error for a duplicate) named endpoint.
func (n *MemNetwork) Endpoint(name string) (*MemEndpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.endpoints[name]; dup {
		return nil, fmt.Errorf("transport: duplicate endpoint %q", name)
	}
	ep := &MemEndpoint{
		net:  n,
		addr: name,
		// A deep prioritized inbox so slow receivers don't wedge the whole
		// fabric; the node layer drains promptly, and under overload control
		// messages displace best-effort traffic instead of being shed.
		inbox: NewPrioInbox(n.inboxCapacity, n.classlessInbox),
	}
	n.endpoints[name] = ep
	return ep, nil
}

// NextEndpoint creates an endpoint with a generated unique name.
func (n *MemNetwork) NextEndpoint() *MemEndpoint {
	n.mu.Lock()
	n.seq++
	name := fmt.Sprintf("mem-%d", n.seq)
	n.mu.Unlock()
	ep, err := n.Endpoint(name)
	if err != nil {
		// Names are fabric-generated and unique; a collision is a bug.
		panic(err)
	}
	return ep
}

// deliver routes one message, applying loss and latency.
func (n *MemNetwork) deliver(from, to string, msg wire.Message) error {
	n.mu.Lock()
	dst, ok := n.endpoints[to]
	drop := n.dropRate > 0 && n.rng.Float64() < n.dropRate
	var delay time.Duration
	if n.latency != nil {
		delay = n.latency(from, to)
	}
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	if drop {
		if src := n.endpoint(from); src != nil {
			src.fabricDrops.Add(1)
		}
		return nil // silently lost, as on a real network
	}
	if delay <= 0 {
		dst.push(msg)
		return nil
	}
	dst.pushAfter(delay, msg)
	return nil
}

func (n *MemNetwork) endpoint(name string) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.endpoints[name]
}

// MemEndpoint is one node's attachment to a MemNetwork.
type MemEndpoint struct {
	net   *MemNetwork
	addr  string
	inbox *PrioInbox

	fabricDrops atomic.Uint64

	mu     sync.Mutex
	closed bool
}

var (
	_ Transport     = (*MemEndpoint)(nil)
	_ DropCounter   = (*MemEndpoint)(nil)
	_ QueueReporter = (*MemEndpoint)(nil)
	_ MultiSender   = (*MemEndpoint)(nil)
)

// Addr returns the endpoint's fabric name.
func (e *MemEndpoint) Addr() string { return e.addr }

// Send routes a message through the fabric.
func (e *MemEndpoint) Send(addr string, msg wire.Message) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return e.net.deliver(e.addr, addr, msg)
}

// SendMany implements MultiSender. The fabric moves message values, not
// bytes, so there is no encoding to share — this is the plain loop, kept so
// mem-backed tests exercise the same node fan-out path as TCP.
func (e *MemEndpoint) SendMany(addrs []string, msg wire.Message, each func(addr string, err error)) {
	for _, addr := range addrs {
		err := e.Send(addr, msg)
		if each != nil {
			each(addr, err)
		}
	}
}

// Recv returns the inbound stream (see Transport for the one-consumer rule).
func (e *MemEndpoint) Recv() <-chan wire.Message { return e.inbox.Recv() }

// QueueDepth samples the inbox occupancy.
func (e *MemEndpoint) QueueDepth() int { return e.inbox.Depth() }

// QueueCapacity reports the inbox bound.
func (e *MemEndpoint) QueueCapacity() int { return e.inbox.Capacity() }

// InboxQueue is the prioritized inbox the receiver pops with Next.
func (e *MemEndpoint) InboxQueue() *PrioInbox { return e.inbox }

// push enqueues an inbound message; the prioritized inbox sheds (with
// per-class accounting) when full and discards silently when closed.
func (e *MemEndpoint) push(msg wire.Message) {
	e.inbox.Push(msg)
}

// pushAfter enqueues msg once delay has passed. It is a function of its own,
// kept out of line, so that only the delayed path pays for the closure's
// heap copy of msg: were the closure in deliver (or inlined into it), msg
// would move to the heap on every call.
//
//go:noinline
func (e *MemEndpoint) pushAfter(delay time.Duration, msg wire.Message) {
	time.AfterFunc(delay, func() { e.push(msg) })
}

// DropStats reports the endpoint's loss counters: messages this endpoint
// sent that the fabric dropped, and inbound messages shed on a full inbox,
// broken down by class.
func (e *MemEndpoint) DropStats() DropStats {
	out := e.inbox.dropStats()
	out.FabricDrops = e.fabricDrops.Load()
	return out
}

// Close detaches the endpoint from the fabric.
func (e *MemEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()

	e.net.mu.Lock()
	delete(e.net.endpoints, e.addr)
	e.net.mu.Unlock()

	e.inbox.Close()
	return nil
}
