package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// collect drains up to n messages from ep with a deadline.
func collect(t *testing.T, ep Endpoint, n int, wait time.Duration) []Message {
	t.Helper()
	var out []Message
	deadline := time.After(wait)
	for len(out) < n {
		select {
		case m, ok := <-ep.Recv():
			if !ok {
				return out
			}
			out = append(out, m)
		case <-deadline:
			return out
		}
	}
	return out
}

func TestFaultyDropsAreDeterministicAndDetectable(t *testing.T) {
	run := func() (delivered int, drops int64) {
		nw := NewFaultyNetwork(NewChanNetwork(), FaultyOptions{Seed: 7, DropRate: 0.3})
		defer nw.Close()
		a, _ := nw.Endpoint("a")
		b, _ := nw.Endpoint("b")
		for i := 0; i < 200; i++ {
			err := a.Send("b", Message{Kind: "k", Payload: i, Size: 8})
			if err == nil {
				delivered++
			} else if !errors.Is(err, ErrDropped) {
				t.Fatalf("unexpected error: %v", err)
			}
		}
		got := collect(t, b, delivered, time.Second)
		if len(got) != delivered {
			t.Fatalf("delivered %d, received %d", delivered, len(got))
		}
		return delivered, nw.Drops()
	}
	d1, drops1 := run()
	d2, drops2 := run()
	if d1 != d2 || drops1 != drops2 {
		t.Fatalf("fault pattern not deterministic: (%d,%d) vs (%d,%d)", d1, drops1, d2, drops2)
	}
	if drops1 == 0 || d1 == 200 {
		t.Fatalf("no drops injected at 30%% rate (delivered=%d)", d1)
	}
	if d1+int(drops1) != 200 {
		t.Fatalf("accounting mismatch: %d delivered + %d dropped != 200", d1, drops1)
	}
}

func TestFaultyDuplicates(t *testing.T) {
	nw := NewFaultyNetwork(NewChanNetwork(), FaultyOptions{Seed: 3, DupRate: 0.5})
	defer nw.Close()
	a, _ := nw.Endpoint("a")
	b, _ := nw.Endpoint("b")
	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send("b", Message{Kind: "k", Payload: i, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	dups := int(nw.Dups())
	if dups == 0 {
		t.Fatal("no duplicates at 50% rate")
	}
	got := collect(t, b, n+dups, time.Second)
	if len(got) != n+dups {
		t.Fatalf("received %d, want %d originals + %d dups", len(got), n, dups)
	}
	// Message accounting counts what hit the wire: originals plus dups.
	if nw.Messages() != int64(n+dups) {
		t.Fatalf("Messages() = %d, want %d", nw.Messages(), n+dups)
	}
}

func TestFaultyReordersAdjacentAndLosesNothing(t *testing.T) {
	nw := NewFaultyNetwork(NewChanNetwork(), FaultyOptions{Seed: 11, ReorderRate: 0.3})
	defer nw.Close()
	a, _ := nw.Endpoint("a")
	b, _ := nw.Endpoint("b")
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send("b", Message{Kind: "k", Payload: i, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, b, n, 2*time.Second)
	if len(got) != n {
		t.Fatalf("received %d of %d (reordering must not lose frames)", len(got), n)
	}
	if nw.Reorders() == 0 {
		t.Fatal("no reorders injected at 30% rate")
	}
	seen := make(map[int]bool, n)
	inversions := 0
	prev := -1
	for _, m := range got {
		v := m.Payload.(int)
		if seen[v] {
			t.Fatalf("duplicate %d under reorder-only faults", v)
		}
		seen[v] = true
		if v < prev {
			inversions++
		}
		prev = v
	}
	if inversions == 0 {
		t.Fatal("stream arrived fully ordered despite injected reorders")
	}
}

func TestFaultyHeldFrameFlushedWithoutSuccessor(t *testing.T) {
	// ReorderRate 1 with a single message: the frame is held, no
	// successor ever comes, and the holdMax timer must flush it.
	nw := NewFaultyNetwork(NewChanNetwork(), FaultyOptions{Seed: 1, ReorderRate: 1})
	defer nw.Close()
	a, _ := nw.Endpoint("a")
	b, _ := nw.Endpoint("b")
	if err := a.Send("b", Message{Kind: "k", Payload: 42, Size: 8}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, b, 1, time.Second)
	if len(got) != 1 || got[0].Payload.(int) != 42 {
		t.Fatalf("held frame lost: %v", got)
	}
}

func TestFaultyPartitionAndHeal(t *testing.T) {
	nw := NewFaultyNetwork(NewChanNetwork(), FaultyOptions{Seed: 5})
	defer nw.Close()
	a, _ := nw.Endpoint("a")
	b, _ := nw.Endpoint("b")
	nw.Partition("a", "b")
	if err := a.Send("b", Message{Kind: "k"}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("want ErrPartitioned, got %v", err)
	}
	if err := b.Send("a", Message{Kind: "k"}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("reverse direction not cut: %v", err)
	}
	nw.Heal("a", "b")
	if err := a.Send("b", Message{Kind: "k", Payload: 1}); err != nil {
		t.Fatalf("healed link still failing: %v", err)
	}
	if got := collect(t, b, 1, time.Second); len(got) != 1 {
		t.Fatal("message lost after heal")
	}
}

func TestReliableSendRetriesThroughDrops(t *testing.T) {
	// 60% drop rate: a single Send usually fails eventually, but 10
	// retries push delivery probability to ~1-0.6^11.
	nw := NewFaultyNetwork(NewChanNetwork(), FaultyOptions{Seed: 9, DropRate: 0.6})
	defer nw.Close()
	a, _ := nw.Endpoint("a")
	b, _ := nw.Endpoint("b")
	const n = 50
	totalAttempts := 0
	for i := 0; i < n; i++ {
		attempts, err := ReliableSend(a, "b", Message{Kind: "k", Payload: i, Size: 8}, 10, 100*time.Microsecond)
		if err != nil {
			t.Fatalf("message %d not delivered after %d attempts: %v", i, attempts, err)
		}
		totalAttempts += attempts
	}
	if totalAttempts <= n {
		t.Fatalf("no retries recorded (%d attempts for %d messages) at 60%% drop", totalAttempts, n)
	}
	if got := collect(t, b, n, 2*time.Second); len(got) != n {
		t.Fatalf("received %d of %d", len(got), n)
	}
}

func TestReliableSendGivesUp(t *testing.T) {
	nw := NewFaultyNetwork(NewChanNetwork(), FaultyOptions{Seed: 1})
	defer nw.Close()
	a, _ := nw.Endpoint("a")
	if _, err := nw.Endpoint("b"); err != nil {
		t.Fatal(err)
	}
	nw.Partition("a", "b")
	attempts, err := ReliableSend(a, "b", Message{Kind: "k"}, 3, 50*time.Microsecond)
	if err == nil {
		t.Fatal("send through a partition succeeded")
	}
	if attempts != 4 {
		t.Fatalf("attempts = %d, want 1+3", attempts)
	}
}

func TestFaultyAccountingDelegates(t *testing.T) {
	nw := NewFaultyNetwork(NewChanNetwork(), FaultyOptions{Seed: 2})
	defer nw.Close()
	a, _ := nw.Endpoint("a")
	b, _ := nw.Endpoint("b")
	for i := 0; i < 10; i++ {
		if err := a.Send("b", Message{Kind: "k", Payload: i, Size: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, b, 10, time.Second); len(got) != 10 {
		t.Fatalf("received %d", len(got))
	}
	if nw.BytesSent() != 1000 || nw.Messages() != 10 {
		t.Fatalf("accounting: %d bytes, %d msgs", nw.BytesSent(), nw.Messages())
	}
	if a.Addr() != "a" {
		t.Fatalf("Addr() = %q", a.Addr())
	}
}

func ExampleNewFaultyNetwork() {
	nw := NewFaultyNetwork(NewChanNetwork(), FaultyOptions{Seed: 1, DropRate: 0.5})
	defer nw.Close()
	a, _ := nw.Endpoint("a")
	nw.Endpoint("b")
	delivered := 0
	for i := 0; i < 100; i++ {
		if _, err := ReliableSend(a, "b", Message{Kind: "k", Payload: i}, 8, time.Microsecond); err == nil {
			delivered++
		}
	}
	fmt.Println(delivered)
	// Output: 100
}
