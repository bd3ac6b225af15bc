package transport

import (
	"errors"
	"time"
)

// errSenderClosed marks a Send refused because the sending endpoint
// itself is closed. It will not reopen: ReliableSend gives up at once,
// as it does on ErrUnencodable.
var errSenderClosed = errors.New("transport: sending endpoint is closed")

// ReliableSend sends msg to to, retrying a failed Send up to retries
// additional times with exponential backoff starting at base (doubling
// per attempt). It returns the number of attempts made and the last
// error (nil once an attempt succeeds).
//
// This is the delivery discipline for control-plane traffic over lossy
// or flapping links: the FaultyNetwork surfaces injected drops and
// partitions as Send errors, and the TCP backend surfaces a dead
// persistent connection the same way — one bounded retry loop covers
// both. Callers that can tolerate loss (or are racing shutdown) may
// ignore the error after counting it.
func ReliableSend(ep Endpoint, to string, msg Message, retries int, base time.Duration) (int, error) {
	if retries < 0 {
		retries = 0
	}
	if base <= 0 {
		base = time.Millisecond
	}
	var err error
	attempts := 0
	backoff := base
	for try := 0; try <= retries; try++ {
		attempts++
		if err = ep.Send(to, msg); err == nil {
			return attempts, nil
		}
		if errors.Is(err, errSenderClosed) || errors.Is(err, ErrUnencodable) {
			return attempts, err
		}
		if try < retries {
			time.Sleep(backoff)
			backoff *= 2
		}
	}
	return attempts, err
}
