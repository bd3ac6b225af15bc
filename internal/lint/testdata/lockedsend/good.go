// Clean fixture for lockedsend: none of these may produce a finding.
// Fixtures are parse-only — types here are stand-ins, not the real ones.
package fixture

import "sync"

type conn struct {
	mu       sync.Mutex
	flushReq chan struct{}
}

// The tcpConn idiom: a non-blocking nudge of the flusher under the
// lock. A select with a default clause cannot block, so it is allowed.
func (c *conn) nudge() {
	c.mu.Lock()
	select {
	case c.flushReq <- struct{}{}:
	default:
	}
	c.mu.Unlock()
}

// Sending after the unlock is the normal, safe shape.
func (c *conn) sendAfter(ep endpoint) error {
	c.mu.Lock()
	state := 1
	c.mu.Unlock()
	return ep.Send(state, "x")
}

// A spawned goroutine does not hold the spawner's lock; its body is
// analyzed as its own function, where no mutex is held.
func (c *conn) spawn(ep endpoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		_ = ep.Send(1, "y")
	}()
}

// Branches that each lock AND unlock leave nothing held at the join.
func (c *conn) balancedBranches(cond bool, ep endpoint) {
	if cond {
		c.mu.Lock()
		c.mu.Unlock()
	} else {
		c.mu.Lock()
		c.mu.Unlock()
	}
	_ = ep.Send(2, "z")
}

// A clause that locks and then returns never reaches the send after the
// switch: its held set does not flow on.
func (c *conn) lockedEarlyReturn(mode int, ep endpoint) error {
	switch mode {
	case 1:
		c.mu.Lock()
		defer c.mu.Unlock()
		return nil
	}
	return ep.Send(mode, "after")
}
