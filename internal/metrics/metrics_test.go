package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAddGet(t *testing.T) {
	s := NewSet()
	if s.Get("x") != 0 {
		t.Fatal("fresh counter not zero")
	}
	s.Add("x", 5)
	s.Add("x", -2)
	if got := s.Get("x"); got != 3 {
		t.Fatalf("got %d, want 3", got)
	}
}

func TestConcurrentAdds(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.Add(ShuffleBytes, 1)
			}
		}()
	}
	wg.Wait()
	if got := s.Get(ShuffleBytes); got != 16000 {
		t.Fatalf("lost updates: got %d", got)
	}
}

func TestSpans(t *testing.T) {
	s := NewSet()
	s.AddSpan("init", 2*time.Second)
	s.AddSpan("init", time.Second)
	if got := s.Span("init"); got != 3*time.Second {
		t.Fatalf("got %v", got)
	}
	if s.Span("missing") != 0 {
		t.Fatal("missing span not zero")
	}
}

func TestTimed(t *testing.T) {
	s := NewSet()
	s.Timed("work", func() { time.Sleep(5 * time.Millisecond) })
	if s.Span("work") < 5*time.Millisecond {
		t.Fatalf("Timed undercounted: %v", s.Span("work"))
	}
}

func TestSnapshotAndString(t *testing.T) {
	s := NewSet()
	s.Add("b", 2)
	s.Add("a", 1)
	s.AddSpan("t", time.Millisecond)
	snap := s.Snapshot()
	if snap["a"] != 1 || snap["b"] != 2 || snap["t"] != int64(time.Millisecond) {
		t.Fatalf("bad snapshot: %v", snap)
	}
	str := s.String()
	if !strings.Contains(str, "a=1") || strings.Index(str, "a=1") > strings.Index(str, "b=2") {
		t.Fatalf("String not sorted: %q", str)
	}
}

func TestNilSetIsSafe(t *testing.T) {
	var s *Set
	s.Add("x", 1)
	s.AddSpan("y", time.Second)
	if s.Get("x") != 0 || s.Span("y") != 0 || s.Snapshot() != nil {
		t.Fatal("nil set should be inert")
	}
}

// TestConcurrentNewNames: counters made concurrently — while others read
// and snapshot the set — are all kept, each with every update.
func TestConcurrentNewNames(t *testing.T) {
	s := NewSet()
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for range 500 {
				s.Add(name, 1)
				s.AddSpan(name, 1)
			}
		}()
		go func() {
			defer wg.Done()
			for range 100 {
				_ = s.Snapshot()
				_ = s.Get(name)
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	for _, name := range names {
		if s.Get(name) != 500 || s.Span(name) != 500 || snap[name] != 500 {
			t.Fatalf("%s: counter %d, span %d, snapshot %d; want 500 each", name, s.Get(name), s.Span(name), snap[name])
		}
	}
}

// TestAddExistingAllocatesNothing: adding to a counter that exists is
// free of allocation (the per-message path).
func TestAddExistingAllocatesNothing(t *testing.T) {
	s := NewSet()
	s.Add(StateBytes, 1)
	if allocs := testing.AllocsPerRun(100, func() { s.Add(StateBytes, 1) }); allocs != 0 {
		t.Fatalf("%v allocs per Add, want 0", allocs)
	}
}
