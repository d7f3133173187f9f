package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// gobV1Probe returns a pinned frame of the retired gob wire version 1 —
// TProbe{From: "old:1", ReqID: 1} exactly as a version-1 writer framed it:
// a 4-byte big-endian length prefix, the gob type descriptors, the value.
func gobV1Probe(tb testing.TB) []byte {
	tb.Helper()
	raw, err := os.ReadFile("testdata/gob_v1_probe.hex")
	if err != nil {
		tb.Fatal(err)
	}
	b, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// appendFrames encodes msgs back to back into one byte stream.
func appendFrames(tb testing.TB, msgs []Message) []byte {
	tb.Helper()
	var out []byte
	for i := range msgs {
		var err error
		if out, err = AppendMessage(out, &msgs[i]); err != nil {
			tb.Fatalf("encode %d: %v", i, err)
		}
	}
	return out
}

func TestFrameRoundTripStream(t *testing.T) {
	msgs := []Message{
		{Type: TProbe, From: PeerInfo{Addr: "a:1", Capacity: 3}, ReqID: 1},
		{Type: TPayload, GroupID: "g", Seq: 9, Data: []byte("hello"),
			From: PeerInfo{Addr: "b:2", Coord: []float64{1, 2}}},
		{Type: TBeacon, GroupID: "g", Epoch: 4,
			Deputies: []PeerInfo{{Addr: "c:3"}},
			Charter: Charter{GroupID: "g", Epoch: 4,
				HighWater: []DigestEntry{{Source: "s", High: 7}}}},
	}
	fr := NewFrameReader(bytes.NewReader(appendFrames(t, msgs)))
	for i := range msgs {
		var got Message
		if err := fr.ReadMessage(&got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, msgs[i]) {
			t.Fatalf("message %d mismatch:\n got %+v\nwant %+v", i, got, msgs[i])
		}
	}
	var extra Message
	if err := fr.ReadMessage(&extra); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

// TestFrameReaderRejectsOversizedPrefix: a header announcing a body above
// MaxFrameSize fails before the reader allocates a body buffer.
func TestFrameReaderRejectsOversizedPrefix(t *testing.T) {
	hdr := []byte{magic0, magic1, VersionBinary, byte(TPayload), 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[4:], MaxFrameSize+1)
	fr := NewFrameReader(bytes.NewReader(append(hdr, 0)))
	var msg Message
	if err := fr.ReadMessage(&msg); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if fr.frame != nil {
		t.Fatalf("oversized frame allocated a %d-byte body buffer", cap(fr.frame))
	}
}

func TestFrameReaderTruncatedFrame(t *testing.T) {
	valid, err := EncodeMessage(&Message{Type: TProbe, From: PeerInfo{Addr: "x:1"}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(valid); cut++ {
		fr := NewFrameReader(bytes.NewReader(valid[:cut]))
		var msg Message
		if err := fr.ReadMessage(&msg); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

func TestDecodeMessageRejectsTrailingBytes(t *testing.T) {
	valid, err := EncodeMessage(&Message{Type: TProbe})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(append(valid, 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeMessage(valid); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
}

func TestWriterRejectsOversizedMessage(t *testing.T) {
	msg := Message{Type: TPayload, Data: make([]byte, MaxFrameSize+1)}
	if _, err := EncodeMessage(&msg); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("EncodeMessage: got %v, want ErrFrameTooLarge", err)
	}
	dst := []byte("keep")
	out, err := AppendMessage(dst, &msg)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("AppendMessage: got %v, want ErrFrameTooLarge", err)
	}
	if string(out) != "keep" {
		t.Fatalf("failed append left %d bytes, want the 4-byte prefix untouched", len(out))
	}
}

// TestMixedVersionStream: a stream that switches to the retired gob wire
// version mid-way decodes every binary frame before the switch, then fails
// with ErrBadMagic on the first version-1 frame.
func TestMixedVersionStream(t *testing.T) {
	msgs := []Message{
		{Type: TPayload, GroupID: "g", Seq: 9, Data: []byte("binary"), MsgID: 2},
		{Type: TNack, GroupID: "g", NackSource: "s", NackSeqs: []uint64{5, 6}, MsgID: 5},
	}
	stream := append(appendFrames(t, msgs), gobV1Probe(t)...)
	fr := NewFrameReader(bytes.NewReader(stream))
	for i := range msgs {
		var got Message
		if err := fr.ReadMessage(&got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !msgEquivalent(&got, &msgs[i]) {
			t.Fatalf("message %d mismatch:\n got %+v\nwant %+v", i, got, msgs[i])
		}
	}
	var v1 Message
	if err := fr.ReadMessage(&v1); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("version-1 frame: got %v, want ErrBadMagic", err)
	}
}

// TestGobFrameRejected pins the retirement of wire version 1: a gob frame is
// refused with ErrBadMagic after the 8 header bytes, before the reader
// allocates a body buffer — even when its length prefix announces a body
// just under the 4 MiB cap.
func TestGobFrameRejected(t *testing.T) {
	v1 := gobV1Probe(t)
	huge := append([]byte{0x00, 0x3F, 0xFF, 0xFF}, v1[4:]...)
	for name, frame := range map[string][]byte{"probe": v1, "huge-prefix": huge} {
		rd := bytes.NewReader(frame)
		fr := NewFrameReader(rd)
		var msg Message
		if err := fr.ReadMessage(&msg); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("%s: got %v, want ErrBadMagic", name, err)
		}
		if read := len(frame) - rd.Len(); read != binHeaderLen {
			t.Fatalf("%s: reader consumed %d bytes, want the %d-byte header", name, read, binHeaderLen)
		}
		if fr.frame != nil {
			t.Fatalf("%s: rejected frame allocated a %d-byte body buffer", name, cap(fr.frame))
		}
		if _, err := DecodeFrames(frame); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("%s: DecodeFrames: got %v, want ErrBadMagic", name, err)
		}
	}
}
