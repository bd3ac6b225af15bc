package transport

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestTCPCompressedFramesRoundTrip runs compressible and incompressible
// payloads, binary and gob (control message) framed, over a
// CompressThreshold network, and checks every payload survives
// byte-identically while the compressible ones actually went out
// flate-wrapped and smaller.
func TestTCPCompressedFramesRoundTrip(t *testing.T) {
	n := NewTCPNetworkOpts(TCPOptions{CompressThreshold: 256})
	defer n.Close()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("the same words over and over ", 200) // ~6 KB, very compressible
	sent := []Message{
		{Kind: "bin-big", Payload: binPayload{A: 1, B: big}, Size: 1},
		{Kind: "bin-small", Payload: binPayload{A: 2, B: "tiny"}, Size: 2}, // under threshold
		{Kind: "gob-big", Payload: gobOnlyPayload{N: 3, S: []string{big, big}}, Size: 3},
		{Kind: "bin-big-2", Payload: binPayload{A: 4, B: big + big}, Size: 4},
	}
	for _, m := range sent {
		if err := a.Send("b", m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range sent {
		got := recvWire(t, b)
		if got.Kind != want.Kind || !reflect.DeepEqual(got.Payload, want.Payload) {
			t.Fatalf("message %d (%s) corrupted through compression: %#v", i, want.Kind, got.Payload)
		}
	}
	if cf := n.CompressedFrames(); cf != 3 {
		t.Fatalf("compressed frames = %d, want 3 (the big payloads)", cf)
	}
	if n.CompressionSaved() <= 0 {
		t.Fatal("compression saved no bytes")
	}
}

// TestTCPCompressionOffByDefault pins the default: no threshold, no
// flate frames, whatever the payload size.
func TestTCPCompressionOffByDefault(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	if err := a.Send("b", Message{Kind: "k", Payload: binPayload{A: 9, B: strings.Repeat("z", 1<<16)}}); err != nil {
		t.Fatal(err)
	}
	recvWire(t, b)
	if n.CompressedFrames() != 0 {
		t.Fatalf("compressed %d frames with compression disabled", n.CompressedFrames())
	}
}

// TestTCPIncompressibleFrameShipsRaw: a frame over the threshold whose
// flate output is not smaller must go out uncompressed (and still
// arrive).
func TestTCPIncompressibleFrameShipsRaw(t *testing.T) {
	n := NewTCPNetworkOpts(TCPOptions{CompressThreshold: 64})
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	// Pseudo-random bytes: flate cannot shrink these.
	noise := make([]byte, 4096)
	x := uint32(2463534242)
	for i := range noise {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		noise[i] = byte(x)
	}
	msg := Message{Kind: "noise", Payload: binPayload{A: 1, B: string(noise)}}
	if err := a.Send("b", msg); err != nil {
		t.Fatal(err)
	}
	got := recvWire(t, b)
	if !reflect.DeepEqual(got.Payload, msg.Payload) {
		t.Fatal("noise payload corrupted")
	}
	if n.CompressedFrames() != 0 {
		t.Fatalf("incompressible frame was sent compressed (%d)", n.CompressedFrames())
	}
}

// TestTCPCompressedStreamSustained interleaves many compressed and raw
// frames on one connection to shake out state-reuse bugs in the per-conn
// compressor and the read loop's reused buffers.
func TestTCPCompressedStreamSustained(t *testing.T) {
	n := NewTCPNetworkOpts(TCPOptions{CompressThreshold: 128})
	defer n.Close()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	const rounds = 200
	for i := 0; i < rounds; i++ {
		body := fmt.Sprintf("round %d ", i)
		if i%3 != 0 {
			body = strings.Repeat(body, 100) // over threshold, compressible
		}
		if err := a.Send("b", Message{Kind: "k", Payload: binPayload{A: int64(i), B: body}}); err != nil {
			t.Fatal(err)
		}
		got := recvWire(t, b)
		if got.Payload.(binPayload).A != int64(i) || got.Payload.(binPayload).B != body {
			t.Fatalf("round %d corrupted", i)
		}
	}
	if cf := n.CompressedFrames(); cf == 0 || cf >= rounds {
		t.Fatalf("compressed frames = %d, want mixed stream", cf)
	}
}
