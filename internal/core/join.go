package core

import "imapreduce/internal/kv"

// The join of iterated state with what a persistent task keeps between
// iterations — the map's static partition, the termination reduce's
// previous state — is the paper's (§3.2): both sides are runs in the same
// key order, walked together (colMapLoops.mapState, colRun). The engine
// produces that order anyway: a reduce groups its keys ascending and a
// pair's reduce→map connection delivers them in sequence.

// keyedRun turns records read in file order into a run: ordered by key
// under ops, with only the last record of a duplicated key kept — what
// assigning them to a map in file order would leave. In place.
func keyedRun(ps []kv.Pair, ops kv.Ops) []kv.Pair {
	ops.SortPairs(ps) // stable: a key's last record stays last
	run := ps[:0]
	for i, p := range ps {
		if i+1 == len(ps) || p.Key != ps[i+1].Key {
			run = append(run, p)
		}
	}
	clear(ps[len(run):])
	return run
}
