// Clean fixture for sendcheck: none of these may produce a finding.
// Types come from bad.go conceptually; fixtures are parse-only.
package fixture

// Checking the error is the normal shape.
func checked(ep endpoint, to int) error {
	if err := ep.Send(to, "payload"); err != nil {
		return err
	}
	return nil
}

// An explicit blank assignment is the project's visible "loss is
// tolerated here" marker and is allowed.
func tolerated(ep endpoint) {
	// Shutdown race: the peer may already be gone.
	_ = ep.Send(0, "bye")
}

// Consuming both results of the retry helper is fine.
func retried(ep endpoint) error {
	attempts, err := ReliableSend(ep, 1, "x", 5, 0)
	_ = attempts
	return err
}

// A fire-and-forget send says so in the code itself: there is no
// suppression directive, the blank assignment is the only escape.
func fireAndForget(ep endpoint) {
	// Probe: loss is counted by the receiver.
	_ = ep.Send(9, "probe")
}
