package core

import (
	"slices"

	"imapreduce/internal/kv"
)

// The join of iterated state with what a persistent task keeps between
// iterations — the map's static partition, the termination reduce's
// previous state — is the paper's (§3.2): both sides are runs in the same
// key order, walked together. The engine produces that order anyway: the
// Grouper emits key-ascending groups and a pair's reduce→map connection
// delivers them in sequence. The contract this rests on is that the
// static and the state keys of a phase are comparable by that phase's
// Ops (processBroadcast's and writeFinal's sorts always needed it).

// keyedRun turns records read in file order into a run: ordered by key
// under ops, with only the last record of a duplicated key kept — what
// assigning them to a map in file order would leave. In place.
func keyedRun(ps []kv.Pair, ops kv.Ops) []kv.Pair {
	ops.SortPairs(ps) // stable: a key's last record stays last
	cmp := ops.KeyOrder()
	run := ps[:0]
	for i, p := range ps {
		if i+1 == len(ps) || cmp(p.Key, ps[i+1].Key) != 0 {
			run = append(run, p)
		}
	}
	clear(ps[len(run):])
	return run
}

// seek looks key up in run with the cursor at cur, and returns the
// record's value (nil when run has none for key) and the cursor for the
// next lookup. Input arriving in key order hits at the cursor itself;
// anything else (the first iteration's DFS order, a streamed chunk's
// first record) costs one binary search of the side of the cursor the
// key lies on.
func seek(run []kv.Pair, cmp func(a, b any) int, cur int, key any) (val any, next int) {
	lo, hi := 0, len(run)
	if cur < len(run) {
		switch c := cmp(run[cur].Key, key); {
		case c == 0:
			return run[cur].Value, cur + 1
		case c < 0:
			lo = cur + 1
		default:
			hi = cur
		}
	}
	i, ok := slices.BinarySearchFunc(run[lo:hi], key, func(p kv.Pair, k any) int { return cmp(p.Key, k) })
	if !ok {
		return nil, lo + i // where key would be: its successor is next in order
	}
	return run[lo+i].Value, lo + i + 1
}

// stateRun is the state a termination reduce carries from one iteration
// to the next for the Distance test and the final output: a key-ordered
// run with unique keys. An iteration merges its key-ascending reduce
// results into it in one two-pointer pass (put per group, then end) that
// writes a second buffer, recycled across iterations. A key absent from
// an iteration survives with its last value.
type stateRun struct {
	run  []kv.Pair
	next []kv.Pair // the pass in progress: everything up to the last put
	pos  int       // first record of run the pass has not consumed
}

// load replaces the run with records in file order (a checkpoint part).
func (s *stateRun) load(ps []kv.Pair, ops kv.Ops) {
	s.run, s.next, s.pos = keyedRun(ps, ops), s.next[:0], 0
}

// put records val as key's new state and returns its previous state, if
// it had one. Keys must arrive in ascending order within a pass: the
// records of the run it passes over carry into the pass.
func (s *stateRun) put(cmp func(a, b any) int, key, val any) (old any, existed bool) {
	for s.pos < len(s.run) {
		p := s.run[s.pos]
		c := cmp(p.Key, key)
		if c > 0 {
			break
		}
		s.pos++
		if c == 0 {
			// The run keeps its own box of the key: the incoming one may sit
			// in this iteration's decode arena, which the run would then pin
			// for as long as the key lives.
			s.next = append(s.next, kv.Pair{Key: p.Key, Value: val})
			return p.Value, true
		}
		s.next = append(s.next, p)
	}
	s.next = append(s.next, kv.Pair{Key: key, Value: val})
	return nil, false
}

// end closes the pass: the records past the last put carry over and the
// merged buffer becomes the run.
func (s *stateRun) end() {
	s.next = append(s.next, s.run[s.pos:]...)
	clear(s.run) // the recycled buffer must pin no state of two iterations ago
	s.run, s.next, s.pos = s.next, s.run[:0], 0
}
