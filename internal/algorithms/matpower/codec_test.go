package matpower

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"imapreduce/internal/algorithms/jacobi"
	"imapreduce/internal/algorithms/kmeans"
	"imapreduce/internal/graph"
	"imapreduce/internal/kv"
	"imapreduce/internal/mapreduce"
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
	var es []Entry
	f := kv.DecodeFields(kv.AppendUvarint(nil, 2))
	if walkEntries(&f, &es); f.Err() == nil {
		t.Error("two entries decoded from no bytes")
	}
}

// TestRecordGolden pins the encoding of one sample of every record type
// the algorithms, the graph and the MapReduce baseline register, after
// the value's type tag: the bytes the hand-written codecs wrote before
// each became one walk. Encoding a registered record allocates nothing.
func TestRecordGolden(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{graph.Adj{Dst: []int32{3, -1, 70000}, W: []float32{0.5, -2, 1e-3}}, "030601e0c508030000003f000000c06f12833a"},
		{graph.Adj{Dst: []int32{1}}, "010200"},
		{kmeans.Point{1.5, -2.25, 1e10}, "03000000000000f83f00000000000002c0000000205fa00242"},
		{kmeans.PartialSum{Vec: []float64{0.5, 3}, Count: 300}, "02000000000000e03f0000000000000840d804"},
		{jacobi.Row{B: 2.5, Diag: -4, Idx: []int32{0, 7, 300}, Val: []float64{0.25, -1, 3}},
			"000000000000044000000000000010c003000ed80403000000000000d03f000000000000f0bf0000000000000840"},
		{Entry{K: -5, V: 0.75}, "09000000000000e83f"},
		{Row{Entries: []Entry{{1, 0.5}, {300, -2}}}, "0202000000000000e03fd80400000000000000c0"},
		{[]Entry{{2, 1.25}}, "0104000000000000f43f"},
		{Col{Idx: []int32{4, 9}, Val: []float64{1, -0.5}}, "02081202000000000000f03f000000000000e0bf"},
		{taggedEntry{FromM: true, I: 70000, V: 0.125}, "01e0c508000000000000c03f"},
		{joined{Ms: []taggedEntry{{true, 1, 2}}, Ns: []taggedEntry{{false, 3, 4}, {true, -1, 0.5}}},
			"010102000000000000004002000600000000000010400101000000000000e03f"},
		{mapreduce.IterValue{State: 0.5, Static: []int32{1, 2}}, "07000000000000e03f0a020204"},
		{mapreduce.Tagged{Src: 1, Val: int64(-7)}, "02040d"},
	} {
		enc, ok := kv.AppendValue(nil, c.v)
		if !ok {
			t.Fatalf("%T did not encode", c.v)
		}
		_, n := binary.Uvarint(enc)
		if got := hex.EncodeToString(enc[n:]); got != c.want {
			t.Errorf("%T encodes as %s, want %s", c.v, got, c.want)
		}
		dec, m, err := kv.DecodeValue(enc)
		if err != nil || m != len(enc) || !reflect.DeepEqual(dec, c.v) {
			t.Errorf("%T decodes as %#v (%d of %d bytes, %v)", c.v, dec, m, len(enc), err)
		}
		buf := make([]byte, 0, 256)
		if allocs := testing.AllocsPerRun(100, func() { buf, _ = kv.AppendValue(buf[:0], c.v) }); allocs != 0 {
			t.Errorf("%T: encoding allocates %v times", c.v, allocs)
		}
	}
}
