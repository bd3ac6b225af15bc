package core

import (
	"math"
	"testing"

	"imapreduce/internal/kv"
)

// TestChunkHeaderEndCount: the End count crosses the binary wire as a
// uvarint — 0 on a data chunk, a multi-byte total intact — and a count
// no sender could have sent is refused.
func TestChunkHeaderEndCount(t *testing.T) {
	pairs := []kv.Pair{{Key: int64(7), Value: 1.5}}
	for _, end := range []int{0, 1, 300} {
		data, ok := shuffleChunk{Gen: 2, Iter: 3, FromMap: 4, Seq: 5, Pairs: pairs, End: end}.AppendWire(nil)
		if !ok {
			t.Fatal("shuffle chunk did not encode")
		}
		got, err := decodeShuffleChunk(data)
		if err != nil {
			t.Fatal(err)
		}
		c := got.(shuffleChunk)
		c.release()
		if c.End != end || c.Gen != 2 || c.Iter != 3 || c.FromMap != 4 || c.Seq != 5 || len(c.Pairs) != 1 {
			t.Fatalf("shuffle chunk with End %d decoded as %+v", end, c)
		}

		data, ok = stateChunk{Gen: 2, Iter: 3, From: 4, Seq: 5, Pairs: pairs, End: end}.AppendWire(nil)
		if !ok {
			t.Fatal("state chunk did not encode")
		}
		gotState, err := decodeStateChunk(data)
		if err != nil {
			t.Fatal(err)
		}
		s := gotState.(stateChunk)
		s.release()
		if s.End != end || s.From != 4 {
			t.Fatalf("state chunk with End %d decoded as %+v", end, s)
		}
	}

	bad := kv.AppendUvarint(appendChunkHeader(nil, 1, 1, 0, 1, 0)[:4], math.MaxInt32+1)
	if _, err := decodeShuffleChunk(kv.AppendUvarint(bad, 0)); err == nil {
		t.Fatal("an End count past MaxInt32 was accepted")
	}
}
