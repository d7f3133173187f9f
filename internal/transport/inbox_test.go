package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"groupcast/internal/wire"
)

func bestEffortPayload(id uint64) wire.Message {
	return wire.Message{Type: wire.TPayload, MsgID: id, Mode: wire.BestEffort}
}

func reliablePayload(id uint64) wire.Message {
	return wire.Message{Type: wire.TPayload, MsgID: id, Mode: wire.Reliable}
}

// drainInbox receives until the inbox goes quiet for the given idle window.
func drainInbox(in *PrioInbox, idle time.Duration) []wire.Message {
	var out []wire.Message
	for {
		select {
		case msg, ok := <-in.Recv():
			if !ok {
				return out
			}
			out = append(out, msg)
		case <-time.After(idle):
			return out
		}
	}
}

// popQueued pops every message queued right now, without waiting.
func popQueued(in *PrioInbox) []wire.Message {
	var out []wire.Message
	for in.Depth() > 0 {
		msg, ok := in.Next(nil)
		if !ok {
			break
		}
		out = append(out, msg)
	}
	return out
}

// TestPrioInboxDrainOrder: queued messages leave highest class first, FIFO
// within a class. Nothing sits between the class queues and Next, so the
// order is strict from the first pop.
func TestPrioInboxDrainOrder(t *testing.T) {
	in := NewPrioInbox(64, false)
	defer in.Close()
	for i := uint64(1); i < 10; i++ {
		in.Push(bestEffortPayload(i))
	}
	for i := uint64(10); i < 15; i++ {
		in.Push(reliablePayload(i))
	}
	for i := uint64(15); i < 20; i++ {
		in.Push(wire.Message{Type: wire.TBeacon, MsgID: i})
	}
	got := popQueued(in)
	var want []uint64
	for i := uint64(15); i < 20; i++ {
		want = append(want, i)
	}
	for i := uint64(10); i < 15; i++ {
		want = append(want, i)
	}
	for i := uint64(1); i < 10; i++ {
		want = append(want, i)
	}
	if len(got) != len(want) {
		t.Fatalf("popped %d messages, want %d", len(got), len(want))
	}
	for i, msg := range got {
		if msg.MsgID != want[i] {
			t.Fatalf("pop %d = message %d (class %v), want message %d",
				i, msg.MsgID, wire.Classify(&msg), want[i])
		}
	}
}

// TestPrioInboxNextStopClose pins Next's exits under concurrent Push, Next
// and Close: Next returns false once stop is closed and once the inbox is
// closed, and Close leaves no goroutine behind, with or without the Recv
// adapter started. Run it under -race.
func TestPrioInboxNextStopClose(t *testing.T) {
	returns := func(t *testing.T, what string, next func() bool) {
		t.Helper()
		res := make(chan bool, 1)
		go func() { res <- next() }()
		select {
		case ok := <-res:
			if ok {
				t.Fatalf("Next returned a message %s", what)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Next still blocked %s", what)
		}
	}

	t.Run("stop", func(t *testing.T) {
		in := NewPrioInbox(8, false)
		defer in.Close()
		stop := make(chan struct{})
		res := make(chan bool, 1)
		go func() {
			_, ok := in.Next(stop)
			res <- ok
		}()
		close(stop)
		if ok := <-res; ok {
			t.Fatal("Next on an empty inbox returned a message after stop")
		}
		in.Push(bestEffortPayload(1))
		returns(t, "with a closed stop and a queued message", func() bool {
			_, ok := in.Next(stop)
			return ok
		})
	})

	// The inbox has one consumer: a Next loop, or the Recv adapter.
	for _, adapter := range []bool{false, true} {
		name := "next"
		if adapter {
			name = "recv-adapter"
		}
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			in := NewPrioInbox(16, false)
			stopPush := make(chan struct{})
			var pushers sync.WaitGroup
			for p := 0; p < 3; p++ {
				pushers.Add(1)
				go func() {
					defer pushers.Done()
					for i := 0; ; i++ {
						select {
						case <-stopPush:
							return
						default:
						}
						if i%3 == 0 {
							in.Push(wire.Message{Type: wire.TBeacon, MsgID: uint64(i)})
						} else {
							in.Push(bestEffortPayload(uint64(i)))
						}
						runtime.Gosched()
					}
				}()
			}
			var popped atomic.Int64
			consumerDone := make(chan struct{})
			go func() {
				defer close(consumerDone)
				if adapter {
					for range in.Recv() {
						popped.Add(1)
					}
					return
				}
				for {
					if _, ok := in.Next(nil); !ok {
						return
					}
					popped.Add(1)
				}
			}()
			deadline := time.Now().Add(5 * time.Second)
			for popped.Load() < 100 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if popped.Load() == 0 {
				t.Error("consumer popped nothing while pushers ran")
			}
			in.Close()
			select {
			case <-consumerDone:
			case <-time.After(5 * time.Second):
				t.Fatal("consumer still blocked after Close")
			}
			close(stopPush)
			pushers.Wait()
			returns(t, "after Close", func() bool {
				_, ok := in.Next(make(chan struct{}))
				return ok
			})
			if in.Push(bestEffortPayload(1)) {
				t.Fatal("push accepted after Close")
			}
			if in.Depth() != 0 {
				t.Fatalf("depth %d after Close, want 0", in.Depth())
			}
			deadline = time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before the inbox existed",
						runtime.NumGoroutine(), base)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}

	// Started but never read, the adapter parks holding one message; Close
	// still ends it.
	t.Run("recv-adapter-unread", func(t *testing.T) {
		base := runtime.NumGoroutine()
		in := NewPrioInbox(8, false)
		in.Recv()
		in.Push(bestEffortPayload(1))
		in.Push(bestEffortPayload(2))
		in.Close()
		if _, ok := <-in.Recv(); ok {
			// The adapter may hand over the message it held; after that the
			// channel must close.
			if _, ok := <-in.Recv(); ok {
				t.Fatal("Recv still open after Close")
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Close, %d before the inbox existed",
					runtime.NumGoroutine(), base)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestPrioInboxSteadyStateAllocs: once the class rings have grown to the
// working depth, a push and a pop allocate nothing (the slice queues they
// replace reallocated as they slid forward).
func TestPrioInboxSteadyStateAllocs(t *testing.T) {
	in := NewPrioInbox(64, false)
	defer in.Close()
	msgs := []wire.Message{
		bestEffortPayload(1),
		reliablePayload(2),
		{Type: wire.TBeacon, MsgID: 3},
	}
	for i := 0; i < 20; i++ {
		in.Push(msgs[i%len(msgs)])
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		in.Push(msgs[i%len(msgs)])
		i++
		if _, ok := in.Next(nil); !ok {
			t.Fatal("Next on a non-empty inbox returned false")
		}
	})
	if allocs != 0 {
		t.Fatalf("push+pop at steady depth = %v allocs, want 0", allocs)
	}
	if d := in.Depth(); d != 20 {
		t.Fatalf("depth %d after balanced push/pop, want 20", d)
	}
}

// TestPrioInboxControlDisplacesBestEffort is the transport half of the
// control-plane starvation regression: flood the inbox with best-effort
// payloads at 10x capacity, then deliver the control plane — beacons,
// NACKs, digests, charter-bearing beacons. Every control message must be
// accepted (displacing best-effort), control sheds must stay zero, and the
// flood must account for the loss.
func TestPrioInboxControlDisplacesBestEffort(t *testing.T) {
	const capacity = 16
	in := NewPrioInbox(capacity, false)
	defer in.Close()

	for i := 0; i < 10*capacity; i++ {
		in.Push(bestEffortPayload(uint64(i)))
	}
	control := []wire.Message{
		{Type: wire.TBeacon, GroupID: "g", Epoch: 3},
		{Type: wire.TNack, GroupID: "g", NackSource: "src", NackSeqs: []uint64{4}},
		{Type: wire.TDigest, GroupID: "g", Digest: []wire.DigestEntry{{Source: "s", High: 9}}},
		{Type: wire.TBeacon, GroupID: "g", Epoch: 3,
			Charter: wire.Charter{GroupID: "g", Epoch: 3}},
		{Type: wire.THeartbeat},
		{Type: wire.THandoff, GroupID: "g"},
	}
	for _, msg := range control {
		if !in.Push(msg) {
			t.Fatalf("control message %v rejected with best-effort slots occupied", msg.Type)
		}
	}

	got := drainInbox(in, 200*time.Millisecond)
	var controlGot int
	for i := range got {
		if wire.Classify(&got[i]) == wire.ClassControl {
			controlGot++
		}
	}
	if controlGot != len(control) {
		t.Fatalf("delivered %d control messages, want %d", controlGot, len(control))
	}
	shed := in.ShedByClass()
	if shed[wire.ClassControl] != 0 {
		t.Fatalf("control sheds = %d, want 0", shed[wire.ClassControl])
	}
	if shed[wire.ClassBestEffort] == 0 {
		t.Fatal("best-effort flood shed nothing at 10x capacity")
	}
	acc := in.AcceptedByClass()
	if int(acc[wire.ClassControl]) != len(control) {
		t.Fatalf("control accepted = %d, want %d", acc[wire.ClassControl], len(control))
	}
	// Conservation: every push was either accepted or shed at arrival, and a
	// displaced victim counts in both (accepted on push, shed on eviction) —
	// so the sum is the flood plus one per displacing control message.
	total := acc[wire.ClassBestEffort] + shed[wire.ClassBestEffort]
	if total < 10*capacity || total > 10*capacity+uint64(len(control)) {
		t.Fatalf("best-effort accepted+shed = %d, want in [%d, %d]",
			total, 10*capacity, 10*capacity+len(control))
	}
}

// TestPrioInboxClasslessStarvesControl pins the legacy failure mode the
// prioritized queue exists to fix: under the single-FIFO policy the same
// flood sheds control messages. (This is the "fails on today's single-queue
// behaviour" half of the regression pair.)
func TestPrioInboxClasslessStarvesControl(t *testing.T) {
	const capacity = 16
	in := NewPrioInbox(capacity, true)
	defer in.Close()

	for i := 0; i < 10*capacity; i++ {
		in.Push(bestEffortPayload(uint64(i)))
	}
	for i := 0; i < 8; i++ {
		in.Push(wire.Message{Type: wire.TBeacon, GroupID: "g", Epoch: uint64(i)})
	}
	shed := in.ShedByClass()
	if shed[wire.ClassControl] == 0 {
		t.Fatal("classless inbox accepted all control during a saturating flood; " +
			"the priority queue would be pointless")
	}
}

// TestPrioInboxReliableDisplacesOnlyBestEffort: reliable-data displaces
// best-effort but never control, and is itself shed when only control and
// reliable traffic remain.
func TestPrioInboxReliableDisplacesOnlyBestEffort(t *testing.T) {
	const capacity = 8
	in := NewPrioInbox(capacity, false)
	defer in.Close()

	// Fill with best-effort, then push reliable: displacement.
	for i := 0; i < 2*capacity; i++ {
		in.Push(bestEffortPayload(uint64(i)))
	}
	for i := 0; i < capacity; i++ {
		if !in.Push(reliablePayload(uint64(100 + i))) {
			t.Fatalf("reliable payload %d rejected with best-effort queued", i)
		}
	}
	// The inbox now holds (almost) only reliable data; more reliable pushes
	// must shed as reliable, not displace anything.
	accBefore := in.AcceptedByClass()[wire.ClassReliableData]
	in.Push(reliablePayload(999))
	acc := in.AcceptedByClass()
	shed := in.ShedByClass()
	// Either it landed in a freed slot or it shed as reliable; what it must
	// never do is displace control or get counted against another class.
	if acc[wire.ClassReliableData] == accBefore && shed[wire.ClassReliableData] == 0 {
		t.Fatal("reliable push vanished without accept or shed accounting")
	}
	if shed[wire.ClassControl] != 0 {
		t.Fatalf("control sheds = %d, want 0", shed[wire.ClassControl])
	}
}

// TestPrioInboxCloseSemantics: Close is idempotent, closes the Recv stream,
// and rejects later pushes without counting them as sheds.
func TestPrioInboxCloseSemantics(t *testing.T) {
	in := NewPrioInbox(8, false)
	in.Close()
	in.Close()
	if _, ok := <-in.Recv(); ok {
		t.Fatal("Recv still open after Close")
	}
	if in.Push(bestEffortPayload(1)) {
		t.Fatal("push accepted after Close")
	}
	if in.Sheds() != 0 {
		t.Fatalf("closed-inbox push counted as shed: %d", in.Sheds())
	}
}

// TestShedAccountingParity asserts every transport accounts inbox sheds
// identically through the shared prioritized queue: a flood at small
// capacity yields accepted+shed == pushed with the same per-class split,
// whether the endpoint is a MemEndpoint, a TCPTransport, or either wrapped
// in the chaos layer (which previously hid the wrapped endpoint's sheds).
func TestShedAccountingParity(t *testing.T) {
	const capacity = 8
	const flood = 64

	type shedPair struct {
		send func(msg wire.Message) error
		dst  interface {
			DropCounter
			QueueReporter
		}
	}
	pairs := map[string]func(t *testing.T) shedPair{
		"mem": func(t *testing.T) shedPair {
			n := NewMemNetwork()
			n.SetInboxPolicy(capacity, false)
			a, b := n.NextEndpoint(), n.NextEndpoint()
			t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
			return shedPair{send: func(m wire.Message) error { return a.Send(b.Addr(), m) }, dst: b}
		},
		"mem+chaos": func(t *testing.T) shedPair {
			n := NewMemNetwork()
			n.SetInboxPolicy(capacity, false)
			cn := NewChaosNetwork(7)
			a, b := cn.Wrap(n.NextEndpoint()), cn.Wrap(n.NextEndpoint())
			t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
			return shedPair{send: func(m wire.Message) error { return a.Send(b.Addr(), m) }, dst: b}
		},
		"tcp": func(t *testing.T) shedPair {
			cfg := DefaultTCPConfig()
			cfg.InboxCapacity = capacity
			a, err := ListenTCPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ListenTCPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
			return shedPair{send: func(m wire.Message) error { return a.Send(b.Addr(), m) }, dst: b}
		},
		"tcp+chaos": func(t *testing.T) shedPair {
			cfg := DefaultTCPConfig()
			cfg.InboxCapacity = capacity
			at, err := ListenTCPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			bt, err := ListenTCPConfig("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			cn := NewChaosNetwork(7)
			a, b := cn.Wrap(at), cn.Wrap(bt)
			t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
			return shedPair{send: func(m wire.Message) error { return a.Send(b.Addr(), m) }, dst: b}
		},
	}

	for name, build := range pairs {
		t.Run(name, func(t *testing.T) {
			p := build(t)
			for i := 0; i < flood; i++ {
				if err := p.send(bestEffortPayload(uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			// Conservation must hold once everything in flight has landed.
			deadline := time.Now().Add(5 * time.Second)
			for {
				ds := p.dst.DropStats()
				accepted := uint64(flood) - ds.InboxSheds
				if ds.InboxSheds > 0 && accepted <= uint64(capacity)+1 {
					if ds.BestEffortSheds != ds.InboxSheds {
						t.Fatalf("per-class split broken: best-effort=%d total=%d",
							ds.BestEffortSheds, ds.InboxSheds)
					}
					if ds.ControlSheds != 0 || ds.ReliableSheds != 0 {
						t.Fatalf("phantom sheds: control=%d reliable=%d",
							ds.ControlSheds, ds.ReliableSheds)
					}
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("shed accounting never converged: %+v", ds)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
