package transport

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPSendSurvivesDeadConnection proves the first-message-lost bug is
// fixed: after the persistent connection under an established pair dies,
// the very next Send re-dials and the frame still arrives — it is not
// sacrificed to mark the connection dead.
func TestTCPSendSurvivesDeadConnection(t *testing.T) {
	nw := NewTCPNetwork()
	defer nw.Close()
	a, err := nw.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}

	if err := a.Send("b", Message{Kind: "k", Payload: "first", Size: 5}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, b, 1, 2*time.Second); len(got) != 1 {
		t.Fatal("first message lost")
	}
	if nw.Dials() != 1 {
		t.Fatalf("dials = %d, want 1", nw.Dials())
	}

	// Kill the established connection out from under the sender, the way
	// a peer restart or idle-timeout reset does.
	ta := a.(*tcpEndpoint)
	ta.mu.Lock()
	conn := ta.conns["b"]
	ta.mu.Unlock()
	conn.mu.Lock()
	conn.c.Close()
	conn.mu.Unlock()

	// The next sends must still deliver: the first Send may need one or
	// two attempts for the kernel to surface the reset, so mark the conn
	// dead explicitly to model the deterministic half of the failure,
	// then send.
	conn.mu.Lock()
	conn.dead = true
	conn.mu.Unlock()

	if err := a.Send("b", Message{Kind: "k", Payload: "second", Size: 6}); err != nil {
		t.Fatalf("send after dead connection: %v", err)
	}
	got := collect(t, b, 1, 2*time.Second)
	if len(got) != 1 || got[0].Payload.(string) != "second" {
		t.Fatalf("frame lost across reconnect: %v", got)
	}
	if nw.Dials() != 2 {
		t.Fatalf("dials = %d, want 2 (one re-dial)", nw.Dials())
	}

	// And a raw socket close without the dead mark: Send sees the encode
	// failure, marks the conn dead, and retransmits through a fresh
	// dial — at most one frame is duplicated, none lost.
	ta.mu.Lock()
	conn2 := ta.conns["b"]
	ta.mu.Unlock()
	conn2.mu.Lock()
	conn2.c.Close()
	conn2.mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for {
		// The first write after a close can be buffered by the kernel and
		// "succeed"; keep sending until the reset surfaces and the
		// re-dial path runs, or the frames simply all arrive.
		if err := a.Send("b", Message{Kind: "k", Payload: "third", Size: 5}); err != nil {
			t.Fatalf("send after socket close: %v", err)
		}
		if nw.Dials() == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("re-dial never happened after socket close")
		}
		time.Sleep(time.Millisecond)
	}
	if got := collect(t, b, 1, 2*time.Second); len(got) == 0 {
		t.Fatal("no frame delivered after re-dial")
	}
}

// deadTarget returns a loopback host:port with nothing listening on it:
// dials to it fail fast with connection-refused.
func deadTarget(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// withDialTimings gives n a shorter dial timeout and backoff schedule
// than the defaults, before any endpoint dials.
func withDialTimings(n *TCPNetwork, timeout, base, max time.Duration) *TCPNetwork {
	n.dialTimeout, n.backoffBase, n.backoffMax = timeout, base, max
	return n
}

// TestDialBackoffCapsAttempts hammers Send at an unreachable peer and
// proves the per-peer gate turns the hot loop into a bounded, spaced
// dial schedule: attempts are exponentially separated (each gap at
// least half the base backoff, growing to the cap), the total is far
// below the send count, and sends inside the window fail fast with a
// typed DialBackoffError instead of touching the kernel.
func TestDialBackoffCapsAttempts(t *testing.T) {
	target := deadTarget(t)
	var mu sync.Mutex
	var attemptTimes []time.Time
	nw := withDialTimings(NewTCPNetworkOpts(TCPOptions{
		Resolver: func(logical string) (string, bool) {
			if logical != "ghost" {
				return "", false
			}
			mu.Lock()
			attemptTimes = append(attemptTimes, time.Now())
			mu.Unlock()
			return target, true
		},
	}), 250*time.Millisecond, 10*time.Millisecond, 40*time.Millisecond)
	defer nw.Close()
	a, err := nw.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}

	sends := 0
	deadline := time.Now().Add(310 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := a.Send("ghost", Message{Kind: "k", Payload: "x", Size: 1}); err == nil {
			t.Fatal("send to unreachable peer succeeded")
		}
		sends++
		time.Sleep(time.Millisecond)
	}

	attempts := nw.DialAttempts()
	if attempts < 3 {
		t.Fatalf("dial attempts = %d, want >= 3 (gate never re-opened?)", attempts)
	}
	if attempts > 20 {
		t.Fatalf("dial storm: %d dial attempts for %d sends", attempts, sends)
	}
	if int64(sends) < attempts*3 {
		t.Fatalf("sends (%d) not decoupled from dial attempts (%d)", sends, attempts)
	}

	// Spacing: every gap between real dial attempts must be at least
	// half the base backoff (the deterministic half of the jittered
	// wait); scheduling delays only widen gaps, never shrink them.
	mu.Lock()
	times := append([]time.Time(nil), attemptTimes...)
	mu.Unlock()
	for i := 1; i < len(times); i++ {
		if gap := times[i].Sub(times[i-1]); gap < 5*time.Millisecond {
			t.Fatalf("attempts %d and %d only %v apart, want >= 5ms", i-1, i, gap)
		}
	}

	// The gate reached the configured cap via doubling.
	ta := a.(*tcpEndpoint)
	ta.mu.Lock()
	g := ta.gates["ghost"]
	ta.mu.Unlock()
	if g == nil || g.backoff != 40*time.Millisecond {
		t.Fatalf("gate backoff = %v, want capped at 40ms", g)
	}

	// Inside the window the failure is the typed fail-fast error.
	var dbe *DialBackoffError
	err = a.Send("ghost", Message{Kind: "k", Payload: "x", Size: 1})
	if !errors.As(err, &dbe) && nw.DialAttempts() != attempts+1 {
		t.Fatalf("send inside backoff window: got %v, want DialBackoffError or a fresh attempt", err)
	}

	// A directory change clears the gate so the remapped peer is dialed
	// immediately.
	nw.Invalidate("ghost")
	ta.mu.Lock()
	cleared := ta.gates["ghost"] == nil
	ta.mu.Unlock()
	if !cleared {
		t.Fatal("Invalidate left the dial gate armed")
	}
}

// TestInvalidateDuringDialSettlesWithoutEffect holds a dial in its
// resolver while the peer moves (Invalidate), then lets it settle at the
// peer's previous home. A failure there must arm no gate — the retry
// dials the new home at once instead of failing with DialBackoffError for
// the whole backoff — and a success must install no connection, so
// nothing reaches the old home.
func TestInvalidateDuringDialSettlesWithoutEffect(t *testing.T) {
	for _, shape := range []string{"failed", "succeeded"} {
		t.Run(shape, func(t *testing.T) {
			newHome := NewTCPNetwork()
			defer newHome.Close()
			dst, err := newHome.Endpoint("peer")
			if err != nil {
				t.Fatal(err)
			}
			newHP, _ := newHome.ListenAddr("peer")
			oldHP := deadTarget(t)
			var oldDst Endpoint
			if shape == "succeeded" {
				oldHome := NewTCPNetwork()
				defer oldHome.Close()
				if oldDst, err = oldHome.Endpoint("peer"); err != nil {
					t.Fatal(err)
				}
				oldHP, _ = oldHome.ListenAddr("peer")
			}

			entered, release := make(chan struct{}), make(chan struct{})
			var resolves atomic.Int64
			// A gate armed by the stale dial would outlive the test.
			nw := withDialTimings(NewTCPNetworkOpts(TCPOptions{
				Resolver: func(string) (string, bool) {
					if resolves.Add(1) == 1 {
						close(entered)
						<-release
						return oldHP, true
					}
					return newHP, true
				},
			}), dialTimeout, time.Minute, time.Minute)
			defer nw.Close()
			a, err := nw.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			sent := make(chan error, 1)
			go func() { sent <- a.Send("peer", Message{Kind: "k", Payload: "moved", Size: 5}) }()
			<-entered
			nw.Invalidate("peer")
			close(release)
			if err := <-sent; err != nil {
				t.Fatalf("send across the move: %v, want the retry to dial the new home at once", err)
			}
			if got := collect(t, dst, 1, 2*time.Second); len(got) != 1 || got[0].Payload.(string) != "moved" {
				t.Fatalf("new home received %v", got)
			}
			if oldDst != nil {
				if got := collect(t, oldDst, 1, 50*time.Millisecond); len(got) != 0 {
					t.Fatalf("old home received %v over the stale connection", got)
				}
			}
			if n := resolves.Load(); n != 2 {
				t.Fatalf("%d resolves, want 2: the stale dial and one fresh one", n)
			}
			ta := a.(*tcpEndpoint)
			ta.mu.Lock()
			g := ta.gates["peer"]
			ta.mu.Unlock()
			if g != nil {
				t.Fatalf("gate armed by a dial the move made stale: %+v", g)
			}
		})
	}
}

// TestDialGateConcurrentSenders is a race-detector test: several
// goroutines send to one unreachable peer over a backoff short enough
// that the gate re-opens many times, so gate reads (fail-fast sends) and
// gate rewrites (the next failed dial re-arming it in place) interleave.
// Every send must fail, and inside the window with the typed error.
func TestDialGateConcurrentSenders(t *testing.T) {
	target := deadTarget(t)
	nw := withDialTimings(NewTCPNetworkOpts(TCPOptions{
		Resolver: func(string) (string, bool) { return target, true },
	}), 250*time.Millisecond, time.Millisecond, 2*time.Millisecond)
	defer nw.Close()
	a, err := nw.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var gated atomic.Int64
	deadline := time.Now().Add(100 * time.Millisecond)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				err := a.Send("ghost", Message{Kind: "k", Payload: "x", Size: 1})
				if err == nil {
					t.Error("send to unreachable peer succeeded")
					return
				}
				var dbe *DialBackoffError
				if errors.As(err, &dbe) {
					if dbe.Err == nil || dbe.Until.IsZero() {
						t.Errorf("backoff error without cause or deadline: %+v", dbe)
						return
					}
					gated.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if gated.Load() == 0 || nw.DialAttempts() < 3 {
		t.Fatalf("%d gated sends over %d dial attempts: the gate was never both read and re-armed",
			gated.Load(), nw.DialAttempts())
	}
}

// recordingEndpoint timestamps every Send for retry-schedule asserts.
type recordingEndpoint struct {
	Endpoint
	mu    sync.Mutex
	times []time.Time
}

func (r *recordingEndpoint) Send(to string, msg Message) error {
	r.mu.Lock()
	r.times = append(r.times, time.Now())
	r.mu.Unlock()
	return r.Endpoint.Send(to, msg)
}

// TestReconnectBackoffUnderPartition runs the control-plane retry
// discipline over a seeded FaultyNetwork partition on top of real
// sockets: attempts are capped at retries+1 and exponentially spaced,
// and the partition causes zero TCP dial attempts — no dial storm
// behind the chaos layer. After Heal the same send goes through.
func TestReconnectBackoffUnderPartition(t *testing.T) {
	inner := NewTCPNetwork()
	f := NewFaultyNetwork(inner, FaultyOptions{Seed: 7})
	defer f.Close()
	a, err := f.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}

	// Establish the persistent connection, then cut the link.
	if err := a.Send("b", Message{Kind: "k", Payload: "pre", Size: 3}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, b, 1, 2*time.Second); len(got) != 1 {
		t.Fatal("pre-partition message lost")
	}
	f.Partition("a", "b")
	dialsBefore := inner.DialAttempts()

	rec := &recordingEndpoint{Endpoint: a}
	base := 8 * time.Millisecond
	attempts, err := ReliableSend(rec, "b", Message{Kind: "k", Payload: "cut", Size: 3}, 4, base)
	if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("send across partition: got %v, want ErrPartitioned", err)
	}
	if attempts != 5 {
		t.Fatalf("attempts = %d, want exactly retries+1 = 5 (capped)", attempts)
	}
	rec.mu.Lock()
	times := append([]time.Time(nil), rec.times...)
	rec.mu.Unlock()
	if len(times) != 5 {
		t.Fatalf("recorded %d sends, want 5", len(times))
	}
	want := base
	for i := 1; i < len(times); i++ {
		if gap := times[i].Sub(times[i-1]); gap < want {
			t.Fatalf("retry %d came %v after retry %d, want >= %v (exponential spacing)", i, gap, i-1, want)
		}
		want *= 2
	}
	if got := inner.DialAttempts(); got != dialsBefore {
		t.Fatalf("partition caused %d TCP dial attempts, want 0", got-dialsBefore)
	}

	f.Heal("a", "b")
	if _, err := ReliableSend(a, "b", Message{Kind: "k", Payload: "post", Size: 4}, 4, base); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	if got := collect(t, b, 1, 2*time.Second); len(got) != 1 || got[0].Payload.(string) != "post" {
		t.Fatalf("post-heal message lost: %v", got)
	}
}
