package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/node"
	"groupcast/internal/peer"
	"groupcast/internal/trace"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

const (
	groupID = "bench"
	// opTimeout bounds one Bootstrap or Join call.
	opTimeout = 2 * time.Second
	// bootstrapContacts is how many seeded random members a newcomer
	// bootstraps from.
	bootstrapContacts = 4
	// traceRing is each traced node's ring size; the sink does the work.
	traceRing = 64
)

// fleetSpec is the shape of one live workload's group.
type fleetSpec struct {
	tcp        bool
	nodes      int
	mode       wire.DeliveryMode
	payload    int // bytes per publish
	publishers int
}

// joinSample is one arrival: New+Start, Bootstrap and Join, timed from the
// benchmark. A failed arrival has ok false.
type joinSample struct {
	ok                 bool
	totalMs, bootMs    float64
	joinMs             float64
	dhtLookups, dhtFbk uint64
}

// fleet is one live group of nodes in this process.
type fleet struct {
	spec fleetSpec
	seed int64
	rng  *rand.Rand
	caps *peer.CapacitySampler
	net  *transport.MemNetwork
	orc  *oracle

	// Traced runs only: the recording switch, the trace sink and every
	// node's timing decorator.
	rec  *recording
	sink *layerSink

	mu      sync.Mutex
	members []*member // every member, in join order; [0] is the rendezvous
	timed   []*timedTransport
	pubs    []*member // publishers by source slot
	joins   []joinSample
}

// newFleet builds the group: the rendezvous creates and advertises it, then
// every other node arrives (New, Start, Bootstrap from seeded random
// members, Join) one after another, each arrival timed.
func newFleet(spec fleetSpec, seed int64, rec *recording, sink *layerSink) (*fleet, error) {
	f := &fleet{
		spec: spec,
		seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
		caps: peer.MustTable1Sampler(),
		orc:  newOracle(groupID, spec.mode == wire.ReliableOrdered, spec.payload, seed),
		rec:  rec,
		sink: sink,
	}
	if !spec.tcp {
		f.net = transport.NewMemNetwork()
	}
	rdv, err := f.startNode(0)
	if err != nil {
		return nil, err
	}
	f.add(rdv)
	if err := rdv.nd.CreateGroupMode(groupID, spec.mode); err != nil {
		f.close()
		return nil, fmt.Errorf("create group: %w", err)
	}
	if err := rdv.nd.Advertise(groupID); err != nil {
		f.close()
		return nil, fmt.Errorf("advertise: %w", err)
	}
	rdv.joinedAt = time.Now().UnixNano()
	// A failed arrival is measured (join_ok_ratio) and replaced by another;
	// a group that keeps refusing newcomers fails the run.
	for tries := 0; len(f.all()) < spec.nodes; tries++ {
		if tries == 2*spec.nodes {
			f.close()
			return nil, fmt.Errorf("only %d of %d nodes joined in %d arrivals", len(f.all()), spec.nodes, tries)
		}
		f.arrive()
	}
	// Publishers: distinct seeded members other than the rendezvous.
	for _, i := range f.rng.Perm(spec.nodes - 1)[:spec.publishers] {
		p := f.members[i+1]
		f.pubs = append(f.pubs, p)
		f.orc.sources = append(f.orc.sources, p.addr)
	}
	return f, nil
}

// startNode creates and starts node i with seeded capacity and coordinate.
func (f *fleet) startNode(i int) (*member, error) {
	cfg := node.DefaultConfig(float64(f.caps.Sample(f.rng)),
		coords.Point{f.rng.Float64() * 100, f.rng.Float64() * 100}, f.seed*1000+int64(i))
	cfg.DeliveryMode = f.spec.mode
	var tr transport.Transport
	if f.spec.tcp {
		t, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		tr = t
	} else {
		tr = f.net.NextEndpoint()
	}
	if f.rec != nil {
		cfg.Tracer = trace.New(traceRing, f.sink)
		wrapped, err := wrapTransport(tr, f.rec)
		if err != nil {
			_ = tr.Close()
			return nil, err
		}
		tr = wrapped
		f.mu.Lock()
		f.timed = append(f.timed, timing(wrapped))
		f.mu.Unlock()
	}
	nd := node.New(tr, cfg)
	m := &member{addr: nd.Addr(), nd: nd, tr: tr}
	nd.SetPayloadHandler(f.orc.handler(m))
	nd.Start()
	return m, nil
}

// timing returns the shared part of a decorated transport.
func timing(tr transport.Transport) *timedTransport {
	switch t := tr.(type) {
	case *timedMem:
		return t.timedTransport
	case *timedTCP:
		return t.timedTransport
	}
	return nil
}

func (f *fleet) add(m *member) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.members = append(f.members, m)
}

// all returns the fleet's members so far.
func (f *fleet) all() []*member {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*member(nil), f.members...)
}

// contacts draws up to bootstrapContacts distinct members.
func (f *fleet) contacts() []string {
	members := f.all()
	k := min(bootstrapContacts, len(members))
	out := make([]string, 0, k)
	for _, i := range f.rng.Perm(len(members))[:k] {
		out = append(out, members[i].addr)
	}
	return out
}

// arrive brings one new node into the group and times it. On failure the
// node is closed and not added.
func (f *fleet) arrive() {
	f.mu.Lock()
	i := len(f.members)
	f.mu.Unlock()
	contacts := f.contacts()
	t0 := time.Now()
	m, err := f.startNode(i)
	if err != nil {
		f.noteJoin(joinSample{})
		return
	}
	t1 := time.Now()
	lookups0 := m.nd.Stats()
	err = m.nd.Bootstrap(contacts, opTimeout)
	t2 := time.Now()
	if err == nil {
		err = m.nd.Join(groupID, opTimeout)
	}
	t3 := time.Now()
	st := m.nd.Stats()
	s := joinSample{
		ok:         err == nil,
		totalMs:    ms(t3.Sub(t0)),
		bootMs:     ms(t2.Sub(t1)),
		joinMs:     ms(t3.Sub(t2)),
		dhtLookups: st.DhtLookups - lookups0.DhtLookups,
		dhtFbk:     st.DhtFallbacks - lookups0.DhtFallbacks,
	}
	if err != nil {
		_ = m.nd.Close()
		f.noteJoin(s)
		return
	}
	m.joinedAt = t3.UnixNano()
	f.add(m)
	f.noteJoin(s)
}

func (f *fleet) noteJoin(s joinSample) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.joins = append(f.joins, s)
}

// close stops every node.
func (f *fleet) close() {
	var wg sync.WaitGroup
	for _, m := range f.all() {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			_ = m.nd.Close()
		}(m)
	}
	wg.Wait()
}

// stats sums the counters of every node the fleet ever started.
func (f *fleet) stats() node.Stats {
	f.mu.Lock()
	ms := append([]*member(nil), f.members...)
	f.mu.Unlock()
	var sum node.Stats
	for _, m := range ms {
		sum.Merge(m.nd.Stats())
	}
	return sum
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
