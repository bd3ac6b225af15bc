package transport

import (
	"sync"
	"time"
)

// LatencyNetwork wraps another Network and delays every message by a
// fixed latency plus a per-byte serialization cost, preserving
// per-sender/per-destination FIFO order. It turns the in-process
// backend into a stand-in for a slow network, for latency-sensitivity
// experiments.
type LatencyNetwork struct {
	inner Network
	// Latency is added to every message; PerMB adds transfer time
	// proportional to Message.Size.
	latency time.Duration
	perMB   time.Duration

	mu     sync.Mutex
	eps    map[string]*latEndpoint
	closed bool
}

// NewLatencyNetwork wraps inner. latency is the per-message delay;
// perMB the additional delay per MiB of payload (by Message.Size).
func NewLatencyNetwork(inner Network, latency, perMB time.Duration) *LatencyNetwork {
	return &LatencyNetwork{
		inner:   inner,
		latency: latency,
		perMB:   perMB,
		eps:     make(map[string]*latEndpoint),
	}
}

type latEndpoint struct {
	net   *LatencyNetwork
	inner Endpoint

	mu     sync.Mutex
	lanes  map[string]*lane // per destination, to keep FIFO per pair
	closed bool
}

// lane is an unbounded delay queue with one pump goroutine.
type lane struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []delayed
	closed bool
}

type delayed struct {
	to  string
	msg Message
	at  time.Time
}

// Endpoint implements Network.
func (n *LatencyNetwork) Endpoint(addr string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.eps[addr]; ok {
		return ep, nil
	}
	inner, err := n.inner.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	ep := &latEndpoint{net: n, inner: inner, lanes: make(map[string]*lane)}
	n.eps[addr] = ep
	return ep, nil
}

func (e *latEndpoint) Addr() string         { return e.inner.Addr() }
func (e *latEndpoint) Recv() <-chan Message { return e.inner.Recv() }

func (e *latEndpoint) Send(to string, msg Message) error {
	delay := e.net.latency +
		time.Duration(float64(e.net.perMB)*float64(msg.Size)/(1<<20))
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return e.inner.Send(to, msg) // degrade to direct send
	}
	ln, ok := e.lanes[to]
	if !ok {
		ln = &lane{}
		ln.cond = sync.NewCond(&ln.mu)
		e.lanes[to] = ln
		go e.pump(ln)
	}
	e.mu.Unlock()
	ln.mu.Lock()
	ln.queue = append(ln.queue, delayed{to: to, msg: msg, at: time.Now().Add(delay)})
	ln.cond.Signal()
	ln.mu.Unlock()
	return nil
}

func (e *latEndpoint) pump(ln *lane) {
	for {
		ln.mu.Lock()
		for len(ln.queue) == 0 && !ln.closed {
			ln.cond.Wait()
		}
		if len(ln.queue) == 0 && ln.closed {
			ln.mu.Unlock()
			return
		}
		d := ln.queue[0]
		ln.queue = ln.queue[1:]
		ln.mu.Unlock()
		if wait := time.Until(d.at); wait > 0 {
			time.Sleep(wait)
		}
		_ = e.inner.Send(d.to, d.msg) // peer may be gone during shutdown
	}
}

func (e *latEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	for _, ln := range e.lanes {
		ln.mu.Lock()
		ln.closed = true
		ln.cond.Signal()
		ln.mu.Unlock()
	}
	e.mu.Unlock()
	// Deregister, so a later Endpoint(addr) wraps a fresh inner endpoint
	// instead of returning this closed one.
	e.net.mu.Lock()
	if e.net.eps[e.inner.Addr()] == e {
		delete(e.net.eps, e.inner.Addr())
	}
	e.net.mu.Unlock()
	return e.inner.Close()
}

// Close implements Network.
func (n *LatencyNetwork) Close() error {
	n.mu.Lock()
	eps := make([]*latEndpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.closed = true
	n.mu.Unlock()
	for _, ep := range eps {
		ep.mu.Lock()
		ep.closed = true
		for _, ln := range ep.lanes {
			ln.mu.Lock()
			ln.closed = true
			ln.cond.Signal()
			ln.mu.Unlock()
		}
		ep.mu.Unlock()
	}
	return n.inner.Close()
}

// BytesSent implements Network.
func (n *LatencyNetwork) BytesSent() int64 { return n.inner.BytesSent() }

// Messages implements Network.
func (n *LatencyNetwork) Messages() int64 { return n.inner.Messages() }
