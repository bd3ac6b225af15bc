package transport

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Fault injection errors. Drops and partitions are *detectable* losses:
// Send returns an error and the frame never reaches the wire, the way a
// broken TCP connection or an unreachable host fails. Callers that need
// delivery retry (see ReliableSend); callers that don't lose the frame,
// exactly as they would on a real lossy link. Duplication and
// reordering are silent — the receiver cannot tell, so the protocol
// above must be idempotent.
var (
	ErrDropped     = errors.New("transport: message dropped by fault injection")
	ErrPartitioned = errors.New("transport: link partitioned")
)

// FaultyOptions configures a FaultyNetwork. All rates are probabilities
// in [0,1) drawn from a per-link deterministic RNG seeded from Seed and
// the (from, to) address pair, so a fixed seed yields a reproducible
// fault pattern per link regardless of cross-link interleaving.
type FaultyOptions struct {
	// Seed keys every per-link RNG. Two networks with the same Seed and
	// the same per-link send sequences inject identical faults.
	Seed int64
	// DropRate is the probability a Send fails with ErrDropped.
	DropRate float64
	// DupRate is the probability a delivered message is delivered twice.
	DupRate float64
	// ReorderRate is the probability a message is held back and
	// delivered after the link's next message (adjacent swap). A held
	// message with no successor is flushed after holdMax.
	ReorderRate float64
}

// holdMax bounds how long a reorder-held message waits for a successor
// before being flushed anyway.
const holdMax = 2 * time.Millisecond

// FaultyNetwork wraps another Network and injects message drops,
// duplicates, adjacent reordering, and per-link partitions — the chaos
// layer for robustness tests. Byte and message accounting is delegated
// to the inner network: dropped frames are never counted, duplicated
// frames are counted twice, matching what a wire-level observer sees.
type FaultyNetwork struct {
	inner Network
	opts  FaultyOptions

	mu     sync.Mutex
	eps    map[string]*faultyEndpoint
	cut    map[[2]string]bool // directed severed links
	closed bool

	drops    atomic.Int64
	dups     atomic.Int64
	reorders atomic.Int64
}

// NewFaultyNetwork wraps inner with fault injection per opts.
func NewFaultyNetwork(inner Network, opts FaultyOptions) *FaultyNetwork {
	return &FaultyNetwork{
		inner: inner,
		opts:  opts,
		eps:   make(map[string]*faultyEndpoint),
		cut:   make(map[[2]string]bool),
	}
}

// Drops returns how many sends were failed with ErrDropped (partition
// losses included).
func (n *FaultyNetwork) Drops() int64 { return n.drops.Load() }

// Dups returns how many extra deliveries were injected.
func (n *FaultyNetwork) Dups() int64 { return n.dups.Load() }

// Reorders returns how many messages were delivered out of order.
func (n *FaultyNetwork) Reorders() int64 { return n.reorders.Load() }

// Partition severs both directions between a and b: sends fail with
// ErrPartitioned until Heal.
func (n *FaultyNetwork) Partition(a, b string) {
	n.mu.Lock()
	n.cut[[2]string{a, b}] = true
	n.cut[[2]string{b, a}] = true
	n.mu.Unlock()
}

// Heal restores the link between a and b.
func (n *FaultyNetwork) Heal(a, b string) {
	n.mu.Lock()
	delete(n.cut, [2]string{a, b})
	delete(n.cut, [2]string{b, a})
	n.mu.Unlock()
}

func (n *FaultyNetwork) partitioned(from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cut[[2]string{from, to}]
}

type faultyEndpoint struct {
	net   *FaultyNetwork
	inner Endpoint

	mu    sync.Mutex
	links map[string]*faultyLink
}

// faultyLink holds per-destination fault state: the deterministic RNG
// and at most one reorder-held message. mu serializes senders on the
// link so the RNG stream position depends only on the link's send
// sequence.
type faultyLink struct {
	mu    sync.Mutex
	rng   *rand.Rand
	held  *Message
	timer *time.Timer
}

// Endpoint implements Network.
func (n *FaultyNetwork) Endpoint(addr string) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("transport: network closed")
	}
	if ep, ok := n.eps[addr]; ok {
		return ep, nil
	}
	inner, err := n.inner.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	ep := &faultyEndpoint{net: n, inner: inner, links: make(map[string]*faultyLink)}
	n.eps[addr] = ep
	return ep, nil
}

func (e *faultyEndpoint) Addr() string         { return e.inner.Addr() }
func (e *faultyEndpoint) Recv() <-chan Message { return e.inner.Recv() }

// linkTo returns the per-destination fault state, creating it with an
// RNG seeded from (Seed, from, to) on first use.
func (e *faultyEndpoint) linkTo(to string) *faultyLink {
	e.mu.Lock()
	defer e.mu.Unlock()
	ln, ok := e.links[to]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(e.inner.Addr()))
		h.Write([]byte{0})
		h.Write([]byte(to))
		ln = &faultyLink{rng: rand.New(rand.NewSource(e.net.opts.Seed ^ int64(h.Sum64())))}
		e.links[to] = ln
	}
	return ln
}

func (e *faultyEndpoint) Send(to string, msg Message) error {
	if e.net.partitioned(e.inner.Addr(), to) {
		e.net.drops.Add(1)
		return fmt.Errorf("%w: %s->%s", ErrPartitioned, e.inner.Addr(), to)
	}
	opts := e.net.opts
	ln := e.linkTo(to)
	ln.mu.Lock()
	// One draw per fault class per message keeps the per-link stream
	// aligned across runs with the same send sequence.
	drop := ln.rng.Float64() < opts.DropRate
	dup := ln.rng.Float64() < opts.DupRate
	reorder := ln.rng.Float64() < opts.ReorderRate

	if drop {
		ln.mu.Unlock()
		e.net.drops.Add(1)
		return fmt.Errorf("%w: %s->%s %s", ErrDropped, e.inner.Addr(), to, msg.Kind)
	}

	// A message held for reordering is released right after the current
	// one — an adjacent swap, the minimal reordering a FIFO link can
	// exhibit.
	var release *Message
	if ln.held != nil && !reorder {
		if ln.timer != nil {
			ln.timer.Stop()
			ln.timer = nil
		}
		release = ln.held
		ln.held = nil
	}

	hold := reorder && ln.held == nil
	if hold {
		held := msg
		ln.held = &held
		e.net.reorders.Add(1)
		ln.timer = time.AfterFunc(holdMax, func() { e.flushHeld(ln, to) })
	}
	ln.mu.Unlock()

	if !hold {
		if err := e.deliver(to, msg, dup); err != nil {
			return err
		}
	}
	if release != nil {
		_ = e.deliver(to, *release, false)
	}
	return nil
}

// flushHeld delivers a reorder-held message whose successor never came.
func (e *faultyEndpoint) flushHeld(ln *faultyLink, to string) {
	ln.mu.Lock()
	var msg *Message
	if ln.held != nil {
		msg = ln.held
		ln.held = nil
		ln.timer = nil
	}
	ln.mu.Unlock()
	if msg != nil {
		_ = e.inner.Send(to, *msg) // peer may be gone during shutdown
	}
}

func (e *faultyEndpoint) deliver(to string, msg Message, dup bool) error {
	if err := e.inner.Send(to, msg); err != nil {
		return err
	}
	if dup {
		e.net.dups.Add(1)
		_ = e.inner.Send(to, msg)
	}
	return nil
}

func (e *faultyEndpoint) Close() error {
	e.mu.Lock()
	links := make(map[string]*faultyLink, len(e.links))
	for to, ln := range e.links {
		links[to] = ln
	}
	e.mu.Unlock()
	for to, ln := range links {
		// Flush any reorder-held frame so teardown itself loses nothing.
		e.flushHeld(ln, to)
	}
	// Deregister so a later Endpoint(addr) builds a fresh wrapper over a
	// fresh inner endpoint — without this, a restarted engine would get
	// this stale wrapper whose inner endpoint is closed.
	e.net.mu.Lock()
	if e.net.eps[e.inner.Addr()] == e {
		delete(e.net.eps, e.inner.Addr())
	}
	e.net.mu.Unlock()
	return e.inner.Close()
}

// Addrs returns the sorted addresses of the currently open endpoints —
// the live link targets a chaos schedule can partition.
func (n *FaultyNetwork) Addrs() []string {
	n.mu.Lock()
	out := make([]string, 0, len(n.eps))
	for a := range n.eps {
		out = append(out, a)
	}
	n.mu.Unlock()
	sort.Strings(out)
	return out
}

// Close implements Network.
func (n *FaultyNetwork) Close() error {
	n.mu.Lock()
	n.closed = true
	eps := make([]*faultyEndpoint, 0, len(n.eps))
	for _, ep := range n.eps {
		eps = append(eps, ep)
	}
	n.eps = make(map[string]*faultyEndpoint)
	n.mu.Unlock()
	for _, ep := range eps {
		ep.mu.Lock()
		for _, ln := range ep.links {
			ln.mu.Lock()
			if ln.timer != nil {
				ln.timer.Stop()
				ln.timer = nil
			}
			ln.held = nil
			ln.mu.Unlock()
		}
		ep.mu.Unlock()
	}
	return n.inner.Close()
}

// BytesSent implements Network.
func (n *FaultyNetwork) BytesSent() int64 { return n.inner.BytesSent() }

// Messages implements Network.
func (n *FaultyNetwork) Messages() int64 { return n.inner.Messages() }
