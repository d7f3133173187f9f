package main

import (
	"strings"
	"testing"
	"time"
)

// newTestOracle returns an oracle with two sources and one subscriber, and
// the payloads of n publishes alternating between the sources.
func newTestOracle(t *testing.T, ordered bool, n int) (*oracle, *member, [][]byte) {
	t.Helper()
	o := newOracle(groupID, ordered, 64, 3)
	o.sources = []string{"a", "b"}
	m := &member{addr: "sub"}
	reserve([]*member{m}, n)
	var payloads [][]byte
	due := time.Now()
	for i := 0; i < n; i++ {
		if err := o.publish(i%2, due, func(b []byte) error {
			payloads = append(payloads, b)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return o, m, payloads
}

func deliverIdx(o *oracle, m *member, payloads [][]byte, idx ...int) {
	for _, i := range idx {
		o.deliver(m, groupID, o.sources[i%2], payloads[i], time.Now())
	}
}

func TestOracleAcceptsCorrectDeliveries(t *testing.T) {
	o, m, p := newTestOracle(t, true, 6)
	deliverIdx(o, m, p, 0, 1, 2, 3, 4, 5)
	o.audit([]*member{m})
	if v := o.Violations(); len(v) != 0 {
		t.Fatalf("violations on a correct run: %v", v)
	}
}

func TestOracleCatchesDuplicate(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		o, m, p := newTestOracle(t, ordered, 4)
		deliverIdx(o, m, p, 0, 1, 2, 2, 3)
		v := o.Violations()
		if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "duplicate") {
			t.Errorf("ordered=%v: duplicate not caught: %v", ordered, v)
		}
	}
}

func TestOracleCatchesReorderUnderOrdered(t *testing.T) {
	// Source a publishes 0, 2, 4: delivering 4 before 2 breaks its FIFO.
	o, m, p := newTestOracle(t, true, 6)
	deliverIdx(o, m, p, 0, 1, 4, 3, 2, 5)
	v := o.Violations()
	if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "fifo-regression") {
		t.Fatalf("reorder not caught: %v", v)
	}
	// An unordered group may deliver in any order.
	o, m, p = newTestOracle(t, false, 6)
	deliverIdx(o, m, p, 0, 1, 4, 3, 2, 5)
	if v := o.Violations(); len(v) != 0 {
		t.Fatalf("unordered reorder flagged: %v", v)
	}
}

func TestOracleCatchesCorruptAndMisattributed(t *testing.T) {
	o, m, p := newTestOracle(t, false, 2)
	bad := append([]byte(nil), p[0]...)
	bad[20] ^= 1
	o.deliver(m, groupID, "a", bad, time.Now())
	o.deliver(m, groupID, "b", p[0], time.Now()) // published by a
	v := strings.Join(o.Violations(), "\n")
	if !strings.Contains(v, "corrupt") || !strings.Contains(v, "misattributed") {
		t.Fatalf("violations = %q", v)
	}
}

func TestOracleAuditCatchesMissingTail(t *testing.T) {
	o, m, p := newTestOracle(t, true, 4)
	deliverIdx(o, m, p, 0, 1, 2) // b's publish 3 never arrives
	o.audit([]*member{m})
	if v := o.Violations(); len(v) == 0 || !strings.Contains(v[0], "eventual-delivery") {
		t.Fatalf("missing delivery not caught: %v", v)
	}
}

func TestAnalyzeOwedDeliveries(t *testing.T) {
	o := newOracle(groupID, false, 64, 1)
	o.sources = []string{"src"}
	base := time.Unix(100, 0)
	o.epoch = base
	early := &member{addr: "early", joinedAt: base.UnixNano()}
	late := &member{addr: "late", joinedAt: base.Add(5 * time.Millisecond).UnixNano()}
	src := &member{addr: "src", joinedAt: base.UnixNano()}
	all := []*member{early, late, src}
	reserve(all, 10)
	for i := 0; i < 10; i++ {
		due := base.Add(time.Duration(i) * time.Millisecond)
		if err := o.publish(0, due, func(b []byte) error {
			if i != 3 { // publish 3 reaches only late joiners' replay
				o.deliver(early, groupID, "src", b, due.Add(time.Millisecond))
			}
			o.deliver(late, groupID, "src", b, due.Add(2*time.Millisecond))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	w := o.analyze(all, 0, 10)
	// early is owed all 10 and misses one; late is owed publishes 5..9
	// (the replayed history is neither owed nor counted); the source is
	// owed nothing.
	if w.owed != 15 || w.delivered != 14 || w.missing() != 1 {
		t.Fatalf("owed %d delivered %d missing %d, want 15 14 1", w.owed, w.delivered, w.missing())
	}
	if got := o.pending(all, 0, 10); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
}
