package wire

import (
	"reflect"
	"testing"
)

// TestZeroMessageEncodes: the zero Message survives both framings the
// transport writes — a standalone frame and a coalesced sub-message.
func TestZeroMessageEncodes(t *testing.T) {
	standalone, err := EncodeMessage(&Message{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := AppendSubMessage(nil, &Message{})
	if err != nil {
		t.Fatal(err)
	}
	container, err := AppendCoalesced(nil, sub)
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{"standalone": standalone, "coalesced": container} {
		msgs, err := DecodeFrames(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(msgs) != 1 || !reflect.DeepEqual(msgs[0], Message{}) {
			t.Fatalf("%s: zero message mutated: %+v", name, msgs)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	types := []Type{
		TProbe, TProbeResp, TConnect, TBackConnect, TBackAccept,
		TAdvertise, TJoin, TJoinAck, TSearch, TSearchHit, TPayload,
		TBeacon, TLeave, THeartbeat, THeartbeatAck,
	}
	seen := make(map[string]bool, len(types))
	for _, ty := range types {
		s := ty.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate name %q for %d", s, int(ty))
		}
		seen[s] = true
	}
	if Type(99).String() != "type(99)" {
		t.Fatalf("unknown type name = %q", Type(99).String())
	}
}
