package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"
)

// replayConn is a connection whose peer sent data and hung up: reads
// replay data, writes (hello acks) vanish.
type replayConn struct {
	net.Conn
	r *bytes.Reader
}

func (c *replayConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *replayConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *replayConn) SetWriteDeadline(time.Time) error { return nil }
func (c *replayConn) Close() error                     { return nil }

// hostileFrames are streams whose length fields promise far more than
// they carry: a frame length of almost 1 GiB, and a frame of type 5
// declaring 512 MiB inflated from three bytes. Type 5 was a deflate frame
// up to protocol v5; the reader must now refuse it as an unknown type.
func hostileFrames() map[string][]byte {
	deflate := binary.AppendUvarint([]byte{5}, 1<<29)
	deflate = append(deflate, 1, 2, 3)
	return map[string][]byte{
		"length":  {0x3f, 0xff, 0xff, 0xff, frameBin, 1, 2, 3},
		"deflate": append(binary.BigEndian.AppendUint32(nil, uint32(len(deflate))), deflate...),
	}
}

// TestHostileLengthsAllocateLittle: a peer that sends a huge length
// prefix, or a frame of an unknown type, and a few bytes before hanging
// up costs the reader no more than a few MB, and the endpoint still
// takes a well-formed frame on a new connection.
func TestHostileLengthsAllocateLittle(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	victim, err := n.Endpoint("victim")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := n.Endpoint("peer")
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := n.ListenAddr("victim")
	v := victim.(*tcpEndpoint)
	for name, frame := range hostileFrames() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		c.Close()

		// A well-formed frame on a new connection still arrives. The
		// accept loop took the hostile connection first, so once only the
		// new one is open the hostile reader has given up.
		if err := peer.Send("victim", Message{Kind: "ok", Payload: binPayload{A: 1, B: name}}); err != nil {
			t.Fatal(err)
		}
		if got := recvWire(t, victim); got.Kind != "ok" || got.Payload.(binPayload).B != name {
			t.Fatalf("%s: got %+v after the hostile frame", name, got)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			v.acceptMu.Lock()
			open := len(v.accepted)
			v.acceptMu.Unlock()
			if open == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d inbound connections still open", name, open)
			}
			time.Sleep(time.Millisecond)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
			t.Fatalf("%s: a %d-byte stream made the process allocate %d bytes", name, len(frame), got)
		}
		n.Invalidate("victim") // the next round dials afresh
	}
}

// FuzzFrames feeds arbitrary bytes to a connection's reader: length
// prefixes, the hello and its version check, binary frames, and unknown
// frame types — the deflate seeds, and the gob seeds from before protocol
// v11, among them a 203-byte gob frame whose type definition once made
// encoding/gob allocate 10 MB. The reader must not panic, and it must
// allocate in proportion to its input. Its seed corpus is in
// testdata/fuzz/FuzzFrames.
func FuzzFrames(f *testing.F) {
	// A length prefix alone buys nothing.
	const allocPerByte = 2064
	n := NewTCPNetwork()
	n.readBufferSize = 4096
	f.Fuzz(func(t *testing.T, data []byte) {
		e := &tcpEndpoint{net: n, addr: "fuzz", ib: newInbox()}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.readLoop(&replayConn{r: bytes.NewReader(data)})
		runtime.ReadMemStats(&after)
		e.ib.close()
		for range e.ib.out {
		}
		limit := uint64(256<<10 + allocPerByte*len(data))
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Fatalf("%d input bytes allocated %d bytes, limit %d", len(data), got, limit)
		}
	})
}
