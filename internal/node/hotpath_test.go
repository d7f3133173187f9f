package node

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"groupcast/internal/coords"
	"groupcast/internal/transport"
	"groupcast/internal/wire"
)

// relayHopAllocBudget bounds the allocations of one untraced relay hop
// above the codec: handle → window → local delivery → fan-out to three
// children through the mem fabric and their inboxes. Measured: 0.
const relayHopAllocBudget = 2

// TestRelayHopAllocBudget is the node layer's allocation budget. One
// untraced relay (a member with a no-op handler) receives fresh, in-order
// best-effort payloads from its parent and forwards each to three children;
// each child pops its copy, so the children's inboxes stay at a steady
// depth. It is deterministic: the relay's loops are not started, the test
// goroutine drives handle directly.
func TestRelayHopAllocBudget(t *testing.T) {
	net := transport.NewMemNetwork()
	relay := New(net.NextEndpoint(), DefaultConfig(100, coords.Point{1, 2}, 1))
	defer relay.Close()
	parent := net.NextEndpoint()
	defer parent.Close()
	var children []*transport.PrioInbox
	gs := newGroupState(wire.BestEffort)
	gs.member = true
	gs.parent = parent.Addr()
	for i := 0; i < 3; i++ {
		ep := net.NextEndpoint()
		defer ep.Close()
		gs.children[ep.Addr()] = wire.PeerInfo{Addr: ep.Addr()}
		children = append(children, ep.InboxQueue())
	}
	relay.mu.Lock()
	relay.groups["g"] = gs
	relay.mu.Unlock()
	var delivered int
	relay.SetPayloadHandler(func(string, wire.PeerInfo, []byte) { delivered++ })

	src := wire.PeerInfo{Addr: "src", Coord: []float64{5, 5}}
	data := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	var seq uint64
	hop := func() {
		seq++
		msg := wire.Message{
			Type: wire.TPayload, From: src, Relay: wire.PeerInfo{Addr: parent.Addr()},
			GroupID: "g", Seq: seq, Mode: wire.BestEffort, Data: data,
			Hops: 1, OriginAt: time.Now(), RelayedAt: time.Now(),
		}
		relay.handle(&msg)
		for _, in := range children {
			if _, ok := in.Next(nil); !ok {
				t.Fatal("child inbox closed")
			}
		}
	}
	// Warm up past the receive window's span so its maps and the rings
	// reach their steady size.
	for i := 0; i < 4*DefaultConfig(0, nil, 0).ReliableWindow+64; i++ {
		hop()
	}
	for _, in := range children {
		if d := in.Depth(); d != 0 {
			t.Fatalf("child inbox depth %d, want 0: a forward went missing", d)
		}
	}
	before := delivered
	allocs := testing.AllocsPerRun(1000, hop)
	if delivered-before < 1000 {
		t.Fatalf("delivered %d of %d payloads", delivered-before, 1000)
	}
	if got := relay.Stats().Sent[wire.TPayload.String()]; got != 3*uint64(seq) {
		t.Fatalf("sent %d payload copies for %d hops, want 3 each", got, seq)
	}
	t.Logf("relay hop: %v allocs (budget %d)", allocs, relayHopAllocBudget)
	if allocs > relayHopAllocBudget {
		t.Fatalf("relay hop = %v allocs, budget %d", allocs, relayHopAllocBudget)
	}
}

// BenchmarkLiveClusterPublish measures one best-effort publish through a
// live 15-member tree on the mem fabric: ns/op is publish → the last of the
// 14 other members' handlers, and allocs/op and B/op cover every node's
// work for that publish. Completion is signalled by the payload handlers,
// not polled.
func BenchmarkLiveClusterPublish(b *testing.B) {
	const members = 15
	net := transport.NewMemNetwork()
	var nodes []*Node
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for i := 0; i < members; i++ {
		cfg := DefaultConfig(100, coords.Point{float64(i % 4 * 10), float64(i / 4 * 10)}, int64(i+1))
		nd := New(net.NextEndpoint(), cfg)
		nd.Start()
		var contacts []string
		for j := len(nodes) - 1; j >= 0 && len(contacts) < 5; j-- {
			contacts = append(contacts, nodes[j].Addr())
		}
		if err := nd.Bootstrap(contacts, 2*time.Second); err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	const gid = "bench"
	rdv := nodes[0]
	if err := rdv.CreateGroupMode(gid, wire.BestEffort); err != nil {
		b.Fatal(err)
	}
	if err := rdv.Advertise(gid); err != nil {
		b.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	for i, nd := range nodes[1:] {
		var err error
		for attempt := 0; attempt < 6; attempt++ {
			if err = nd.Join(gid, time.Second); err == nil {
				break
			}
		}
		if err != nil {
			b.Fatalf("member %d: %v", i+1, err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range nodes[1:] {
		for !nd.Tree(gid).Attached {
			if time.Now().After(deadline) {
				b.Fatalf("%s never attached to the tree", nd.Addr())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	var remaining atomic.Int64
	done := make(chan struct{}, 1)
	for _, nd := range nodes[1:] {
		nd.SetPayloadHandler(func(string, wire.PeerInfo, []byte) {
			if remaining.Add(-1) == 0 {
				select {
				case done <- struct{}{}:
				default:
				}
			}
		})
	}
	payload := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	publish := func() error {
		remaining.Store(members - 1)
		if err := rdv.Publish(gid, payload); err != nil {
			return err
		}
		timeout.Reset(5 * time.Second)
		select {
		case <-done:
			return nil
		case <-timeout.C:
			return fmt.Errorf("%d of %d members never delivered", remaining.Load(), members-1)
		}
	}
	if err := publish(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := publish(); err != nil {
			b.Fatal(err)
		}
	}
}
