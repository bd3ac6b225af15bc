package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"imapreduce/internal/kv"
)

// binPayload is a WireMarshaler test type; Refuse makes the marshaler
// refuse it, as a chunk holding a record with no codec does.
type binPayload struct {
	A      int64
	B      string
	Refuse bool
}

func (p binPayload) WireTag() string { return "test.bin" }

func (p binPayload) AppendWire(buf []byte) ([]byte, bool) {
	if p.Refuse {
		return buf, false
	}
	buf = binary.AppendVarint(buf, p.A)
	buf = binary.AppendUvarint(buf, uint64(len(p.B)))
	return append(buf, p.B...), true
}

// ctlPayload has no WireMarshaler implementation: a control message.
type ctlPayload struct {
	N int
	S []string
}

func init() {
	RegisterMessage("test.ctl", func(f *kv.Fields, p *ctlPayload) { f.Int(&p.N); f.Strings(&p.S) })
	RegisterWireUnmarshaler("test.bin", func(data []byte) (any, error) {
		a, n := binary.Varint(data)
		if n <= 0 {
			return nil, fmt.Errorf("bad varint")
		}
		l, m := binary.Uvarint(data[n:])
		if m <= 0 || uint64(len(data)-n-m) < l {
			return nil, fmt.Errorf("bad string")
		}
		n += m
		return binPayload{A: a, B: string(data[n : n+int(l)])}, nil
	})
}

func recvWire(t *testing.T, ep Endpoint) Message {
	t.Helper()
	select {
	case m, ok := <-ep.Recv():
		if !ok {
			t.Fatal("endpoint closed")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	return Message{}
}

// TestTCPBinaryFrames sends, over one connection: a binary-framed
// payload, a marshaler that refuses, a payload of no registered type, a
// control message, a string and a nil payload. The refusal and the
// unregistered type fail their first Send with ErrUnencodable, are not
// retried and send nothing; the others arrive intact and in order on the
// same connection.
func TestTCPBinaryFrames(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	sent := []Message{
		{Kind: "k1", Payload: binPayload{A: -42, B: "fast path"}, Size: 10},
		{Kind: "k3", Payload: ctlPayload{N: 3, S: []string{"x", "y"}}, Size: 30},
		{Kind: "k4", Payload: "ping", Size: 4},
		{Kind: "k5"},
	}
	if err := a.Send("b", sent[0]); err != nil {
		t.Fatal(err)
	}
	type stranger struct{ X int }
	for _, refused := range []Message{
		{Kind: "k2", Payload: binPayload{A: 7, B: "refused", Refuse: true}, Size: 20},
		{Kind: "k2", Payload: stranger{1}},
	} {
		if attempts, err := ReliableSend(a, "b", refused, 3, time.Millisecond); attempts != 1 || !errors.Is(err, ErrUnencodable) {
			t.Fatalf("%T: %d attempts, err %v; want 1 attempt and ErrUnencodable", refused.Payload, attempts, err)
		}
	}
	for _, m := range sent[1:] {
		if err := a.Send("b", m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range sent {
		got := recvWire(t, b)
		if got.From != "a" || got.To != "b" || got.Kind != want.Kind || got.Size != want.Size {
			t.Fatalf("message %d header mismatch: %+v", i, got)
		}
		if !reflect.DeepEqual(got.Payload, want.Payload) {
			t.Fatalf("message %d payload: got %#v want %#v", i, got.Payload, want.Payload)
		}
	}
	if n.Messages() != int64(len(sent)) {
		t.Fatalf("message count %d", n.Messages())
	}
	if n.Dials() != 1 {
		t.Fatalf("dials %d, want 1 persistent connection", n.Dials())
	}
}

// TestTCPCoalescedBytesAccounted: BytesSent must converge to the full
// framed byte count once the flusher drains, and binary frames must cost
// what they encode.
func TestTCPCoalescedBytesAccounted(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	const sends = 64
	for i := 0; i < sends; i++ {
		if err := a.Send("b", Message{Kind: "k", Payload: binPayload{A: int64(i), B: "payload"}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sends; i++ {
		recvWire(t, b)
	}
	deadline := time.Now().Add(5 * time.Second)
	for n.BytesSent() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	got := n.BytesSent()
	if got == 0 {
		t.Fatal("no bytes accounted after flush")
	}
	// Hello frame + 64 binary frames of ~30 bytes each.
	if got > int64(sends*80) {
		t.Fatalf("binary frames cost %d bytes for %d sends", got, sends)
	}
}
