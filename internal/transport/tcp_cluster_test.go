package transport

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// directory is a tiny shared address book standing in for the cluster
// directory the master broadcasts: logical address -> host:port.
type directory struct {
	mu sync.Mutex
	m  map[string]string
}

func (d *directory) set(logical, hostport string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.m == nil {
		d.m = make(map[string]string)
	}
	d.m[logical] = hostport
}

func (d *directory) resolve(logical string) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	hp, ok := d.m[logical]
	return hp, ok
}

// TestTCPCrossNetworkResolver wires two separate TCPNetworks — the
// multi-process topology — through a shared directory and proves
// traffic flows both ways purely by string address, with no in-process
// listener references between the networks.
func TestTCPCrossNetworkResolver(t *testing.T) {
	dir := &directory{}
	nwA := NewTCPNetworkOpts(TCPOptions{Resolver: dir.resolve})
	defer nwA.Close()
	nwB := NewTCPNetworkOpts(TCPOptions{Resolver: dir.resolve})
	defer nwB.Close()

	a, err := nwA.Endpoint("proc-a/ep")
	if err != nil {
		t.Fatal(err)
	}
	b, err := nwB.Endpoint("proc-b/ep")
	if err != nil {
		t.Fatal(err)
	}
	for _, nw := range []*TCPNetwork{nwA, nwB} {
		for _, logical := range []string{"proc-a/ep", "proc-b/ep"} {
			if hp, ok := nw.ListenAddr(logical); ok {
				dir.set(logical, hp)
			}
		}
	}

	if err := a.Send("proc-b/ep", Message{Kind: "k", Payload: "ping", Size: 4}); err != nil {
		t.Fatalf("cross-network send: %v", err)
	}
	got := collect(t, b, 1, 2*time.Second)
	if len(got) != 1 || got[0].Payload.(string) != "ping" || got[0].From != "proc-a/ep" {
		t.Fatalf("cross-network delivery wrong: %v", got)
	}
	// And the reverse direction, resolved the same way.
	if err := b.Send("proc-a/ep", Message{Kind: "k", Payload: "pong", Size: 4}); err != nil {
		t.Fatalf("reverse cross-network send: %v", err)
	}
	if got := collect(t, a, 1, 2*time.Second); len(got) != 1 || got[0].Payload.(string) != "pong" {
		t.Fatalf("reverse delivery wrong: %v", got)
	}
}

// TestTCPEndpointAt pins an endpoint to an explicit listen address and
// verifies the address is advertised verbatim and claims are exclusive.
func TestTCPEndpointAt(t *testing.T) {
	fixed := deadTarget(t) // a free loopback port
	nw := NewTCPNetwork()
	defer nw.Close()
	if _, err := nw.EndpointAt("ctl/master", fixed); err != nil {
		t.Fatalf("EndpointAt(%s): %v", fixed, err)
	}
	if hp, ok := nw.ListenAddr("ctl/master"); !ok || hp != fixed {
		t.Fatalf("ListenAddr = %q,%v, want %q", hp, ok, fixed)
	}
	if _, err := nw.EndpointAt("ctl/master", fixed); err == nil {
		t.Fatal("second EndpointAt claim succeeded, want exclusive-ownership error")
	}
}

// TestTCPVersionMismatch proves a protocol skew is a typed, actionable
// dial-time failure, not a decode error mid-stream — whether the dialer
// is a build from a newer tree, from a v7 tree, which writes column
// frames' keys as varints, from a v6 tree, which cannot decode column
// state frames, or from a v5 tree, which could still send deflate frames.
func TestTCPVersionMismatch(t *testing.T) {
	for _, remote := range []byte{ProtocolVersion + 1, 7, 6, 5} {
		dir := &directory{}
		oldProc := NewTCPNetworkOpts(TCPOptions{Resolver: dir.resolve})
		defer oldProc.Close()
		newProc := NewTCPNetworkOpts(TCPOptions{Resolver: dir.resolve})
		defer newProc.Close()
		newProc.helloVersion = remote

		if _, err := oldProc.Endpoint("old/ep"); err != nil {
			t.Fatal(err)
		}
		src, err := newProc.Endpoint("new/ep")
		if err != nil {
			t.Fatal(err)
		}
		hp, _ := oldProc.ListenAddr("old/ep")
		dir.set("old/ep", hp)

		err = src.Send("old/ep", Message{Kind: "k", Payload: "x", Size: 1})
		var vme *VersionMismatchError
		if !errors.As(err, &vme) {
			t.Fatalf("v%d send across version skew: got %v, want VersionMismatchError", remote, err)
		}
		if vme.Local != remote || vme.Remote != ProtocolVersion || vme.Peer != "old/ep" {
			t.Fatalf("v%d: mismatch error fields wrong: %+v", remote, vme)
		}
	}
}
