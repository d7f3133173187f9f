package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sync"
	"time"

	"groupcast/internal/invariant"
	"groupcast/internal/node"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// Payload layout written by the generator and checked at every delivery:
//
//	[0:4]    publish index (little endian), unique within a run
//	[4:6]    source slot
//	[6:8]    zero
//	[8:16]   due time, Unix nanoseconds
//	[16:n-4] filler drawn from the seed
//	[n-4:n]  CRC-32 (IEEE) of bytes [0:n-4]
const (
	payloadHeader  = 16
	payloadTrailer = 4
	minPayload     = payloadHeader + payloadTrailer
)

// maxViolations bounds the oracle findings kept verbatim.
const maxViolations = 16

// pubRec is the generator's record of one publish attempt.
type pubRec struct {
	due int64 // Unix nanoseconds
	src int32
	ok  bool // the publish call returned nil
}

// member is one node of a live fleet as the oracle sees it.
type member struct {
	addr string
	nd   *node.Node
	tr   transport.Transport
	// joinedAt is when the node became a member (Unix ns; the rendezvous
	// counts from creating the group). A publish due earlier is not owed
	// to it.
	joinedAt int64

	mu sync.Mutex
	// recv[i] is 1 + the microseconds since the oracle epoch at which
	// publish i was delivered here; 0 means not delivered.
	recv []int32
}

// oracle is the benchmark's correctness check for live workloads. It makes
// the payloads, checks every delivery (checksum, source attribution, no
// duplicate per member, per-source FIFO under ReliableOrdered through
// invariant.Checker) and turns the record of publishes and deliveries into
// latency samples and delivery counts.
type oracle struct {
	group   string
	ordered bool
	size    int
	filler  []byte
	epoch   time.Time
	chk     *invariant.Checker
	// sources are the publishers' addresses by slot; fixed once the fleet
	// is built.
	sources []string

	// pubs is appended by the generator goroutine only and read once the
	// generator has returned.
	pubs []pubRec

	mu         sync.Mutex
	violations []string
	nViolation int
}

func newOracle(group string, ordered bool, size int, seed int64) *oracle {
	if size < minPayload {
		size = minPayload
	}
	filler := make([]byte, size-minPayload)
	rand.New(rand.NewSource(seed)).Read(filler)
	return &oracle{
		group:   group,
		ordered: ordered,
		size:    size,
		filler:  filler,
		epoch:   time.Now(),
		chk:     invariant.New(),
	}
}

func (o *oracle) violatef(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nViolation++
	if len(o.violations) < maxViolations {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// Violations returns every finding of the oracle and of its invariant
// checker; empty means every delivery so far was correct.
func (o *oracle) Violations() []string {
	o.mu.Lock()
	out := append([]string(nil), o.violations...)
	if o.nViolation > len(o.violations) {
		out = append(out, fmt.Sprintf("(and %d more)", o.nViolation-len(o.violations)))
	}
	o.mu.Unlock()
	return append(out, o.chk.Violations()...)
}

// reserve sizes every member's delivery record for total publishes, so the
// delivery handler does not grow slices on the hot path.
func reserve(members []*member, total int) {
	for _, m := range members {
		m.mu.Lock()
		if len(m.recv) < total {
			m.recv = append(m.recv, make([]int32, total-len(m.recv))...)
		}
		m.mu.Unlock()
	}
}

// payload builds publish idx from source slot src, due at due.
func (o *oracle) payload(idx int, src int, due time.Time) []byte {
	b := make([]byte, o.size)
	binary.LittleEndian.PutUint32(b[0:], uint32(idx))
	binary.LittleEndian.PutUint16(b[4:], uint16(src))
	binary.LittleEndian.PutUint64(b[8:], uint64(due.UnixNano()))
	copy(b[payloadHeader:], o.filler)
	binary.LittleEndian.PutUint32(b[o.size-payloadTrailer:], crc32.ChecksumIEEE(b[:o.size-payloadTrailer]))
	return b
}

// publish issues one publish from src through pub and records the attempt.
// Only the generator goroutine calls it.
func (o *oracle) publish(src int, due time.Time, pub func([]byte) error) error {
	idx := len(o.pubs)
	err := pub(o.payload(idx, src, due))
	o.pubs = append(o.pubs, pubRec{due: due.UnixNano(), src: int32(src), ok: err == nil})
	if err == nil {
		o.chk.ObservePublish(o.group, o.sources[src], uint64(idx)+1)
	}
	return err
}

// handler returns the payload handler installed on m.
func (o *oracle) handler(m *member) node.PayloadHandler {
	return func(group string, from wire.PeerInfo, data []byte) {
		o.deliver(m, group, from.Addr, data, time.Now())
	}
}

// deliver checks and records one delivery of data from source at m.
func (o *oracle) deliver(m *member, group, source string, data []byte, at time.Time) {
	if len(data) != o.size ||
		crc32.ChecksumIEEE(data[:o.size-payloadTrailer]) != binary.LittleEndian.Uint32(data[o.size-payloadTrailer:]) {
		o.violatef("corrupt payload at %s from %s (%d bytes)", m.addr, source, len(data))
		return
	}
	idx := int(binary.LittleEndian.Uint32(data[0:]))
	src := int(binary.LittleEndian.Uint16(data[4:]))
	if group != o.group || src >= len(o.sources) || o.sources[src] != source {
		o.violatef("misattributed payload %d at %s: group %q source %s", idx, m.addr, group, source)
		return
	}
	stamp := int32(at.Sub(o.epoch)/time.Microsecond) + 1
	m.mu.Lock()
	if idx >= len(m.recv) {
		m.recv = append(m.recv, make([]int32, idx+1-len(m.recv))...)
	}
	dup := m.recv[idx] != 0
	if !dup {
		m.recv[idx] = stamp
	}
	m.mu.Unlock()
	if dup {
		o.violatef("duplicate delivery of payload %d at %s", idx, m.addr)
	}
	if o.ordered {
		o.chk.ObserveDelivery(m.addr, group, source, uint64(idx)+1)
	}
}

// audit closes the eventual-delivery check of an ordered group for every
// member.
func (o *oracle) audit(members []*member) {
	if !o.ordered {
		return
	}
	for _, m := range members {
		o.chk.AuditDelivery(m.addr, []string{o.group})
	}
}

// windowStats summarises the publishes [from, to) of one window.
type windowStats struct {
	attempted, refused int
	owed, delivered    int
	// latMs holds one sample per owed delivery, +Inf when it never came;
	// dueNs[i] is the due time (Unix ns) of sample i's publish.
	latMs []float64
	dueNs []int64
	// firstDue and lastDelivery bracket the window's work (Unix ns).
	firstDue, lastDelivery int64
}

func (w windowStats) ratio() float64 { return ratio(float64(w.delivered), float64(w.owed)) }

// missing is the number of owed deliveries that never arrived.
func (w windowStats) missing() int { return w.owed - w.delivered }

// analyze turns the publishes [from, to) into owed deliveries and latency
// samples. A publish is owed to every member other than its source that
// joined before the publish was due. Call it only after
// the generator has returned and the deliveries have drained.
func (o *oracle) analyze(members []*member, from, to int) windowStats {
	var w windowStats
	w.latMs = make([]float64, 0, (to-from)*len(members))
	w.dueNs = make([]int64, 0, (to-from)*len(members))
	epochNs := o.epoch.UnixNano()
	for _, m := range members {
		m.mu.Lock()
		for i := from; i < to && i < len(o.pubs); i++ {
			p := o.pubs[i]
			if !p.ok || o.sources[p.src] == m.addr || m.joinedAt > p.due {
				continue
			}
			w.owed++
			w.dueNs = append(w.dueNs, p.due)
			var t int32
			if i < len(m.recv) {
				t = m.recv[i]
			}
			if t == 0 {
				w.latMs = append(w.latMs, math.Inf(1))
				continue
			}
			w.delivered++
			at := epochNs + int64(t-1)*int64(time.Microsecond)
			w.latMs = append(w.latMs, float64(at-p.due)/float64(time.Millisecond))
			if at > w.lastDelivery {
				w.lastDelivery = at
			}
		}
		m.mu.Unlock()
	}
	for i := from; i < to && i < len(o.pubs); i++ {
		w.attempted++
		if !o.pubs[i].ok {
			w.refused++
		}
	}
	if from < len(o.pubs) {
		w.firstDue = o.pubs[from].due
	}
	return w
}

// pending counts owed deliveries of publishes [from, to) not yet made; the
// drain loop polls it.
func (o *oracle) pending(members []*member, from, to int) int {
	n := 0
	for _, m := range members {
		m.mu.Lock()
		for i := from; i < to && i < len(o.pubs); i++ {
			p := o.pubs[i]
			if p.ok && o.sources[p.src] != m.addr && m.joinedAt <= p.due &&
				(i >= len(m.recv) || m.recv[i] == 0) {
				n++
			}
		}
		m.mu.Unlock()
	}
	return n
}
