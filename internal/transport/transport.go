// Package transport moves control and data messages between the master
// and the workers. Two interchangeable backends implement the same
// interface:
//
//   - ChanNetwork: in-process delivery with unbounded per-endpoint
//     queues. Fast path for tests, examples and benchmarks.
//   - TCPNetwork: real sockets with one persistent connection per
//     (sender, receiver) pair — the mechanism iMapReduce uses for its
//     reduce→map state channels (paper §3.2.1). Every message is one
//     binary frame: records travel in the kv codec, control messages
//     as the kv.Fields walk registered for their type (RegisterMessage).
//
// Senders never block: every endpoint owns an unbounded inbox, so
// cyclic flows (map→reduce shuffle concurrent with reduce→map state
// return) cannot deadlock.
package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Message is one framed unit between endpoints.
type Message struct {
	From    string
	To      string
	Kind    string // engine-defined discriminator, e.g. "shuffle", "state"
	Payload any
	// Size is the sender's estimate of the payload's serialized size in
	// bytes; in-process delivery uses it for traffic accounting, the TCP
	// backend additionally counts real wire bytes.
	Size int64
}

// Endpoint is one addressable party (a worker, a task, or the master).
type Endpoint interface {
	// Addr returns the endpoint's name on the network.
	Addr() string
	// Send enqueues msg for endpoint to. It does not block on the
	// receiver and returns an error only if the network is shut down or
	// the destination is unknown.
	Send(to string, msg Message) error
	// Recv returns the channel incoming messages are delivered on. The
	// channel is closed when the endpoint is closed.
	Recv() <-chan Message
	// Close tears the endpoint down and releases its queue.
	Close() error
}

// Preconnector is the optional connection-warming interface. The TCP
// backend implements it to dial persistent connections ahead of first
// use; channel-based endpoints connect instantly and don't need it.
type Preconnector interface {
	// Preconnect starts background dials to peers, ignoring failures
	// (the next Send re-dials as usual).
	Preconnect(peers ...string)
}

// Preconnect warms ep's connections to peers when the transport
// supports it, and is a no-op otherwise.
func Preconnect(ep Endpoint, peers ...string) {
	if p, ok := ep.(Preconnector); ok {
		p.Preconnect(peers...)
	}
}

// Serializer is the optional interface of an endpoint whose Send has
// encoded the whole payload by the time it returns, successful or not:
// nothing the message references is read afterwards, so the sender may
// reuse it at once. The TCP backend implements it; the channel backend
// delivers payloads by reference and does not. A wrapper that may hold a
// message past Send — to delay, reorder or duplicate it, as the Latency
// and Faulty networks do — must not forward it, whatever its inner
// endpoint does.
type Serializer interface {
	// SerializesOnSend is a marker: implementing it is the promise.
	SerializesOnSend()
}

// SerializesOnSend reports whether ep implements Serializer.
func SerializesOnSend(ep Endpoint) bool {
	_, ok := ep.(Serializer)
	return ok
}

// Network creates endpoints and accounts traffic.
type Network interface {
	// Endpoint registers (or returns) the endpoint named addr.
	Endpoint(addr string) (Endpoint, error)
	// Close shuts down all endpoints.
	Close() error
	// BytesSent returns the total payload bytes sent so far (estimated
	// sizes for in-process delivery, real wire bytes for TCP).
	BytesSent() int64
	// Messages returns the total number of messages sent.
	Messages() int64
}

// inbox is an unbounded FIFO pumping into a delivery channel.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	closed bool
	// inflight is true while the pump holds a popped message it has not
	// yet handed to out; push's direct fast path must stay off then or
	// it would overtake that older message.
	inflight bool
	// done is closed by close() so a pump parked on a full out channel
	// wakes up and exits instead of leaking when the receiver is gone.
	done chan struct{}
	out  chan Message
}

func newInbox() *inbox {
	ib := &inbox{out: make(chan Message, 64), done: make(chan struct{})}
	ib.cond = sync.NewCond(&ib.mu)
	go ib.pump()
	return ib
}

func (ib *inbox) push(m Message) bool {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return false
	}
	// Fast path: nothing older is queued or mid-handoff, so delivering
	// straight into the buffered channel keeps FIFO order and skips the
	// pump goroutine's scheduling hop — one fewer wakeup on the
	// per-message latency chain.
	if len(ib.queue) == 0 && !ib.inflight {
		select {
		case ib.out <- m:
			return true
		default:
		}
	}
	ib.queue = append(ib.queue, m)
	ib.cond.Signal()
	return true
}

func (ib *inbox) pump() {
	for {
		ib.mu.Lock()
		for len(ib.queue) == 0 && !ib.closed {
			ib.cond.Wait()
		}
		if len(ib.queue) == 0 && ib.closed {
			ib.mu.Unlock()
			close(ib.out)
			return
		}
		m := ib.queue[0]
		ib.queue = ib.queue[1:]
		ib.inflight = true
		ib.mu.Unlock()
		select {
		case ib.out <- m:
		default:
			// Receiver is not keeping up; block, but give up if the
			// inbox is closed while we wait — a closed endpoint's
			// receiver may be gone for good, and parking on the send
			// forever leaks the pump (Close documents that it releases
			// the queue, so dropping the remainder here is correct).
			select {
			case ib.out <- m:
			case <-ib.done:
				close(ib.out)
				return
			}
		}
		ib.mu.Lock()
		ib.inflight = false
		ib.mu.Unlock()
	}
}

func (ib *inbox) close() {
	ib.mu.Lock()
	if ib.closed {
		ib.mu.Unlock()
		return
	}
	ib.closed = true
	close(ib.done)
	ib.cond.Signal()
	ib.mu.Unlock()
}

// ChanNetwork is the in-process backend.
type ChanNetwork struct {
	mu        sync.Mutex
	endpoints map[string]*chanEndpoint
	closed    bool
	bytes     atomic.Int64
	msgs      atomic.Int64
}

// NewChanNetwork returns an empty in-process network.
func NewChanNetwork() *ChanNetwork {
	return &ChanNetwork{endpoints: make(map[string]*chanEndpoint)}
}

type chanEndpoint struct {
	net    *ChanNetwork
	addr   string
	ib     *inbox
	closed atomic.Bool
}

// Endpoint implements Network.
func (n *ChanNetwork) Endpoint(addr string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("transport: network closed")
	}
	if ep, ok := n.endpoints[addr]; ok {
		return ep, nil
	}
	ep := &chanEndpoint{net: n, addr: addr, ib: newInbox()}
	n.endpoints[addr] = ep
	return ep, nil
}

func (e *chanEndpoint) Addr() string { return e.addr }

func (e *chanEndpoint) Send(to string, msg Message) error {
	if e.closed.Load() {
		// A closed endpoint sends nothing, as on the TCP backend: whoever
		// still holds it is a straggler of a run that was torn down, and
		// its address may already belong to that run's successor.
		return fmt.Errorf("%w (%s)", errSenderClosed, e.addr)
	}
	e.net.mu.Lock()
	dst, ok := e.net.endpoints[to]
	closed := e.net.closed
	e.net.mu.Unlock()
	if closed {
		return fmt.Errorf("transport: network closed")
	}
	if !ok {
		return fmt.Errorf("transport: unknown endpoint %q", to)
	}
	msg.From = e.addr
	msg.To = to
	if !dst.ib.push(msg) {
		return fmt.Errorf("transport: endpoint %q closed", to)
	}
	e.net.bytes.Add(msg.Size)
	e.net.msgs.Add(1)
	return nil
}

func (e *chanEndpoint) Recv() <-chan Message { return e.ib.out }

func (e *chanEndpoint) Close() error {
	e.closed.Store(true)
	e.net.mu.Lock()
	// Only this endpoint's own registration: the address may have been
	// re-bound since an earlier Close.
	if e.net.endpoints[e.addr] == e {
		delete(e.net.endpoints, e.addr)
	}
	e.net.mu.Unlock()
	e.ib.close()
	return nil
}

// Close implements Network.
func (n *ChanNetwork) Close() error {
	n.mu.Lock()
	eps := make([]*chanEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.endpoints = make(map[string]*chanEndpoint)
	n.closed = true
	n.mu.Unlock()
	for _, ep := range eps {
		ep.ib.close()
	}
	return nil
}

// BytesSent implements Network.
func (n *ChanNetwork) BytesSent() int64 { return n.bytes.Load() }

// Messages implements Network.
func (n *ChanNetwork) Messages() int64 { return n.msgs.Load() }
