package transport

import (
	"sync"
	"sync/atomic"

	"groupcast/internal/wire"
)

// DefaultInboxCapacity is the bounded inbound queue size every transport
// uses unless configured otherwise: deep enough that a promptly-draining
// node never sheds, small enough that a wedged node bounds its memory.
const DefaultInboxCapacity = 1024

// PrioInbox is the class-prioritized bounded inbound queue shared by every
// transport (MemEndpoint, TCPTransport, and anything wrapped in the chaos
// layer inherits it through them). It replaces the old single buffered
// channel, which shed indiscriminately when full — a flash-crowd payload
// storm could starve the beacons and NACKs that keep trees alive.
//
// Messages are bucketed by wire.Classify into control, reliable-data, and
// best-effort queues sharing one capacity. The consumer pops the class
// queues directly with Next, which always serves the highest-priority
// non-empty queue; no goroutine sits between the queues and the receiver,
// so a message costs no extra hand-off on its way in. The admission side
// never sheds a message while a strictly lower-priority message holds a
// slot: when the inbox is full, the oldest message of the lowest-priority
// non-empty class below the arrival's class is displaced instead. A control
// message is therefore shed only when the entire inbox is already control
// traffic.
//
// Every shed — displacement or arrival drop — is counted against the class
// of the message lost, and every accepted message is counted too, so
// delivery ratio per class is observable end to end (the overload
// experiment's control-plane-survival column reads these counters).
//
// A classless mode reproduces the legacy single-FIFO behaviour (arrival
// order preserved across classes, incoming messages shed when full) while
// still keeping per-class counters — the ablation baseline that shows what
// priority shedding buys.
type PrioInbox struct {
	capacity  int
	classless bool

	mu     sync.Mutex
	queues [wire.NumClasses]msgRing
	size   int
	closed bool

	wake chan struct{} // doorbell for a waiting Next (capacity 1)
	done chan struct{} // closed by Close

	// The Recv adapter, started by the first Recv call.
	recvOnce sync.Once
	out      chan wire.Message

	accepted [wire.NumClasses]atomic.Uint64
	shed     [wire.NumClasses]atomic.Uint64
}

// NewPrioInbox returns an empty inbox with the given total capacity
// (DefaultInboxCapacity when <= 0). classless selects the legacy
// single-queue shed policy.
func NewPrioInbox(capacity int, classless bool) *PrioInbox {
	if capacity <= 0 {
		capacity = DefaultInboxCapacity
	}
	return &PrioInbox{
		capacity:  capacity,
		classless: classless,
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
}

// Push offers one inbound message, reporting whether it was accepted.
// Rejections (inbox full with nothing lower-priority to displace, or inbox
// closed) are counted by the message's class; closed-inbox pushes are not
// sheds and count nowhere.
func (in *PrioInbox) Push(msg wire.Message) bool {
	cls := wire.Classify(&msg)
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return false
	}
	if in.size < in.capacity {
		in.enqueueLocked(cls, &msg)
		in.mu.Unlock()
		in.ring()
		return true
	}
	if !in.classless {
		// Full: displace the oldest message of the lowest-priority non-empty
		// class strictly below the arrival. Control never sheds while any
		// best-effort or reliable-data slot remains occupied.
		for victim := wire.NumClasses - 1; victim > int(cls); victim-- {
			if in.queues[victim].n == 0 {
				continue
			}
			in.queues[victim].drop()
			in.size--
			in.enqueueLocked(cls, &msg)
			in.mu.Unlock()
			in.shed[victim].Add(1)
			in.ring()
			return true
		}
	}
	in.mu.Unlock()
	in.shed[cls].Add(1)
	return false
}

// enqueueLocked appends msg to its class queue (the single shared queue in
// classless mode) and ticks the accept counter.
func (in *PrioInbox) enqueueLocked(cls wire.Class, msg *wire.Message) {
	idx := int(cls)
	if in.classless {
		idx = 0
	}
	in.queues[idx].push(msg, in.capacity)
	in.size++
	in.accepted[cls].Add(1)
}

// ring wakes a waiting Next without blocking.
func (in *PrioInbox) ring() {
	select {
	case in.wake <- struct{}{}:
	default:
	}
}

// Next removes and returns the oldest message of the highest-priority
// non-empty class, waiting while every class queue is empty. It returns
// false once stop is closed or the inbox is closed; messages still queued at
// Close are dropped, like buffered bytes in a closed socket.
//
// Next and Recv are exclusive: an inbox has one consumer, which either calls
// Next in a loop (the node's receive loop does) or reads the Recv channel,
// never both.
func (in *PrioInbox) Next(stop <-chan struct{}) (wire.Message, bool) {
	for {
		select {
		case <-stop:
			return wire.Message{}, false
		default:
		}
		in.mu.Lock()
		if in.closed {
			in.mu.Unlock()
			return wire.Message{}, false
		}
		for c := range in.queues {
			if in.queues[c].n > 0 {
				msg := in.queues[c].pop()
				in.size--
				in.mu.Unlock()
				return msg, true
			}
		}
		in.mu.Unlock()
		select {
		case <-in.wake:
		case <-stop:
			return wire.Message{}, false
		case <-in.done:
			return wire.Message{}, false
		}
	}
}

// Recv is the prioritized inbound stream for consumers that want a channel,
// closed after Close. The first call starts a goroutine that feeds the
// channel from Next; it exits on Close. The channel is unbuffered, so at
// most one message waits outside the class queues. See Next for the
// one-consumer rule.
func (in *PrioInbox) Recv() <-chan wire.Message {
	in.recvOnce.Do(func() {
		in.out = make(chan wire.Message)
		go in.feed()
	})
	return in.out
}

// feed is the Recv adapter's goroutine.
func (in *PrioInbox) feed() {
	defer close(in.out)
	for {
		msg, ok := in.Next(in.done)
		if !ok {
			return
		}
		select {
		case in.out <- msg:
		case <-in.done:
			return
		}
	}
}

// Depth is the number of queued messages not yet handed to the receiver.
func (in *PrioInbox) Depth() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.size
}

// Capacity is the fixed queue bound.
func (in *PrioInbox) Capacity() int { return in.capacity }

// DepthByClass samples per-class occupancy (all in index 0 in classless
// mode).
func (in *PrioInbox) DepthByClass() [wire.NumClasses]int {
	var out [wire.NumClasses]int
	in.mu.Lock()
	for c := range in.queues {
		out[c] = in.queues[c].n
	}
	in.mu.Unlock()
	return out
}

// ShedByClass reports cumulative sheds per class of message lost.
func (in *PrioInbox) ShedByClass() [wire.NumClasses]uint64 {
	var out [wire.NumClasses]uint64
	for c := range out {
		out[c] = in.shed[c].Load()
	}
	return out
}

// AcceptedByClass reports cumulative accepted messages per class.
func (in *PrioInbox) AcceptedByClass() [wire.NumClasses]uint64 {
	var out [wire.NumClasses]uint64
	for c := range out {
		out[c] = in.accepted[c].Load()
	}
	return out
}

// Sheds is the total across classes.
func (in *PrioInbox) Sheds() uint64 {
	var total uint64
	for c := range in.shed {
		total += in.shed[c].Load()
	}
	return total
}

// dropStats folds the inbox's shed counters into one DropStats value (the
// other fields stay zero for the caller to fill).
func (in *PrioInbox) dropStats() DropStats {
	shed := in.ShedByClass()
	return DropStats{
		InboxSheds:      shed[wire.ClassControl] + shed[wire.ClassReliableData] + shed[wire.ClassBestEffort],
		ControlSheds:    shed[wire.ClassControl],
		ReliableSheds:   shed[wire.ClassReliableData],
		BestEffortSheds: shed[wire.ClassBestEffort],
	}
}

// Close makes Next return false and closes the Recv stream. Idempotent.
// Messages still queued are discarded.
func (in *PrioInbox) Close() {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	in.closed = true
	for c := range in.queues {
		in.queues[c] = msgRing{}
	}
	in.size = 0
	in.mu.Unlock()
	close(in.done)
}

// msgRing is one class queue: a FIFO ring buffer that doubles when full, up
// to the inbox capacity, and never shrinks. Slots are reused, so pushes and
// pops at a steady depth allocate nothing. It starts empty rather than at
// full capacity: three classes of DefaultInboxCapacity 752-byte messages
// would cost every endpoint ~2 MiB whether or not it ever queues.
type msgRing struct {
	buf  []wire.Message
	head int // index of the oldest message
	n    int // messages queued
}

// minRingSize is a class ring's first allocation.
const minRingSize = 8

// push appends msg; limit is the inbox capacity, which bounds the ring.
func (r *msgRing) push(msg *wire.Message, limit int) {
	if r.n == len(r.buf) {
		r.grow(limit)
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = *msg
	r.n++
}

// pop removes the oldest message; the ring must be non-empty.
func (r *msgRing) pop() wire.Message {
	msg := r.buf[r.head]
	r.drop()
	return msg
}

// drop discards the oldest message, clearing its slot so the ring does not
// pin the payload; the ring must be non-empty.
func (r *msgRing) drop() {
	r.buf[r.head] = wire.Message{}
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

// grow doubles a full ring, up to limit slots, unwrapping it so the oldest
// message lands at index 0.
func (r *msgRing) grow(limit int) {
	size := 2 * len(r.buf)
	if size < minRingSize {
		size = minRingSize
	}
	if size > limit {
		size = limit
	}
	buf := make([]wire.Message, size)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
