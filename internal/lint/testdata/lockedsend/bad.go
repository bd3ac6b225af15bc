// Fixture for the lockedsend analyzer: every line carrying a
// want-expectation comment must produce a matching finding.
// Fixtures are parse-only — they never compile as part of the module.
package fixture

import "sync"

type endpoint struct{}

func (endpoint) Send(to int, msg any) error { return nil }

type node struct {
	mu sync.Mutex
	ch chan int
	ep endpoint
}

// A channel send while the mutex is held blocks with the lock taken.
func (n *node) signalLocked() {
	n.mu.Lock()
	n.ch <- 1 // want "channel send in signalLocked while n.mu is locked"
	n.mu.Unlock()
}

// defer n.mu.Unlock() keeps the lock held for the whole body, so the
// transport send below runs under it.
func (n *node) broadcastLocked(to int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	_ = n.ep.Send(to, "hello") // want "call to n.ep.Send in broadcastLocked while n.mu is locked"
}

// A lock taken in only one branch is conservatively still held after
// the join: the send may run locked depending on cond.
func (n *node) branchLocked(cond bool) {
	if cond {
		n.mu.Lock()
	}
	n.ch <- 2 // want "channel send in branchLocked"
	if cond {
		n.mu.Unlock()
	}
}

// ReliableSend by bare name (the transport helper) counts too.
func retryLocked(mu *sync.Mutex, ep endpoint) {
	mu.Lock()
	_, _ = ReliableSend(ep, 3, "x", 5, 0) // want "call to ReliableSend in retryLocked while mu is locked"
	mu.Unlock()
}

func ReliableSend(ep endpoint, to int, msg any, retries, base int) (int, error) {
	return 0, nil
}

// A lock taken in a switch case is still held after the switch: the
// send may run locked depending on mode.
func (n *node) switchLocked(mode int) {
	switch mode {
	case 1:
		n.mu.Lock()
	case 2:
	}
	n.ch <- 3 // want "channel send in switchLocked while n.mu is locked"
	n.mu.Unlock()
}

// The same through a select clause.
func (n *node) selectLocked(tick chan struct{}, to int) {
	select {
	case <-tick:
		n.mu.Lock()
	default:
	}
	_ = n.ep.Send(to, "tick") // want "call to n.ep.Send in selectLocked while n.mu is locked"
	n.mu.Unlock()
}
