package matpower

import (
	"bytes"
	"reflect"
	"testing"

	"imapreduce/internal/kv"
)

// TestJoinCodecsRoundTrip covers the unexported join-phase record types
// the external codec tests cannot reach.
func TestJoinCodecsRoundTrip(t *testing.T) {
	pairs := []kv.Pair{
		{Key: int64(1), Value: taggedEntry{FromM: true, I: 3, V: -1.5}},
		{Key: int64(2), Value: taggedEntry{FromM: false, I: -9, V: 2.25}},
		{Key: int64(3), Value: joined{
			Ms: []taggedEntry{{FromM: true, I: 0, V: 1}},
			Ns: []taggedEntry{{I: 1, V: 2}, {I: 2, V: 3}},
		}},
		{Key: int64(4), Value: joined{}},
	}
	enc, ok := kv.AppendPairs(nil, pairs)
	if !ok {
		t.Fatal("AppendPairs refused join types")
	}
	dec, n, err := kv.DecodePairs(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if !reflect.DeepEqual(pairs, dec) {
		t.Fatalf("round trip mismatch:\n in  %#v\n out %#v", pairs, dec)
	}
	re, ok := kv.AppendPairs(nil, dec)
	if !ok || !bytes.Equal(enc, re) {
		t.Fatal("re-encoding decoded pairs changed the bytes")
	}
}

// TestHostileEntryCounts: an entry count the bytes left cannot hold — the
// 14-byte frame FuzzChunkFrames found declared 7.7e9 entries and
// exhausted memory — fails every entry-list decoder before it allocates.
func TestHostileEntryCounts(t *testing.T) {
	for _, sample := range []any{Row{}, []Entry{}, joined{}} {
		enc, ok := kv.AppendValue(nil, sample)
		if !ok {
			t.Fatalf("%T did not encode", sample)
		}
		// The value's type tag, then a count of 2^62 entries (past what
		// make can allocate, so an unbounded decoder panics rather than
		// exhausting memory) and a few bytes of body.
		tag := enc[:len(enc)-1]
		if _, isJoined := sample.(joined); isJoined {
			tag = enc[:len(enc)-2]
		}
		data := append(kv.AppendUvarint(bytes.Clone(tag), 1<<62), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
		if _, _, err := kv.DecodeValue(data); err == nil {
			t.Errorf("%T: a count of 2^62 entries decoded", sample)
		}
	}
	if _, _, err := entriesAt(kv.AppendUvarint(nil, 2)); err == nil {
		t.Error("two entries decoded from no bytes")
	}
}
