package core

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"imapreduce/internal/kv"
	"imapreduce/internal/transport"
)

// TestChunkHeaderEndCount: the End count crosses the binary wire as a
// uvarint — 0 on a data chunk, a multi-byte total intact — and a count
// no sender could have sent is refused.
func TestChunkHeaderEndCount(t *testing.T) {
	cols := &kv.Cols[any]{Keys: []int64{7}, Vals: []any{1.5}}
	for _, end := range []int{0, 1, 300} {
		data, ok := shuffleChunk{Gen: 2, Iter: 3, FromMap: 4, Seq: 5, Cols: cols, End: end}.AppendWire(nil)
		if !ok {
			t.Fatal("shuffle chunk did not encode")
		}
		got, err := wireDecoders[wireTagColsAny](data)
		if err != nil {
			t.Fatal(err)
		}
		c := got.(shuffleChunk)
		if c.End != end || c.Gen != 2 || c.Iter != 3 || c.FromMap != 4 || c.Seq != 5 || c.Cols.Len() != 1 {
			t.Fatalf("shuffle chunk with End %d decoded as %+v", end, c)
		}
		c.release()

		data, ok = stateChunk{Gen: 2, Iter: 3, From: 4, Seq: 5, Cols: cols, End: end}.AppendWire(nil)
		if !ok {
			t.Fatal("state chunk did not encode")
		}
		gotState, err := wireDecoders[wireTagStateColsAny](data)
		if err != nil {
			t.Fatal(err)
		}
		s := gotState.(stateChunk)
		s.release()
		if s.End != end || s.From != 4 {
			t.Fatalf("state chunk with End %d decoded as %+v", end, s)
		}
	}

	bad := kv.AppendUvarint(header(1, 1, 0, 1, 0, 0)[:4], math.MaxInt32+1)
	if _, err := wireDecoders[wireTagColsAny](append(kv.AppendUvarint(bad, 0), colKeyed, 0)); err == nil {
		t.Fatal("an End count past MaxInt32 was accepted")
	}
}

// header encodes a chunk header.
func header(gen, iter, from int, seq int64, end, slot int) []byte {
	f := kv.EncodeFields(nil)
	chunkHeader(&f, &gen, &iter, &from, &seq, &end, &slot)
	return f.Bytes()
}

// boxedCols is a boxed batch whose keys need 3-byte offsets and whose
// values are of several types, one of them a registered codec's.
func boxedCols() *kv.Cols[any] {
	return &kv.Cols[any]{Keys: []int64{-3, 70_000, 300}, Vals: []any{math.NaN(), "s", []kv.Pair{{Key: int64(1), Value: []int64{2, 3}}}}}
}

// TestColumnStateChunkRoundTrip: a state chunk of column records travels
// as its own frame — tag by value type — and decodes to the same header
// and the same records bit for bit, into a batch from the kv pool; its
// re-encoding is the same bytes.
func TestColumnStateChunkRoundTrip(t *testing.T) {
	f64 := &kv.Cols[float64]{Keys: []int64{-3, 0, 7, 1 << 40}, Vals: []float64{math.Inf(1), math.Copysign(0, -1), math.NaN(), 0.15}}
	i64 := &kv.Cols[int64]{Keys: []int64{2, 5, 9}, Vals: []int64{math.MinInt64, -1, math.MaxInt64}}
	for _, c := range []struct {
		cols records
		tag  string
	}{
		{f64, wireTagStateColsF64}, {i64, wireTagStateColsI64}, {boxedCols(), wireTagStateColsAny},
		{&kv.Cols[float64]{}, wireTagStateColsF64}, {nil, wireTagStateColsAny},
	} {
		in := stateChunk{Gen: 3, Iter: 9, From: 2, Seq: 41, Cols: c.cols, End: 5}
		if tag := in.WireTag(); tag != c.tag {
			t.Fatalf("%T: tag %q, want %q", c.cols, tag, c.tag)
		}
		data, ok := in.AppendWire(nil)
		if !ok {
			t.Fatalf("%T: did not encode", c.cols)
		}
		got, err := wireDecoders[c.tag](data)
		if err != nil {
			t.Fatal(err)
		}
		out := got.(stateChunk)
		if out.Gen != 3 || out.Iter != 9 || out.From != 2 || out.Seq != 41 || out.End != 5 || !out.pooled {
			t.Fatalf("%T: decoded as %+v", c.cols, out)
		}
		if want, have := fmt.Sprintf("%v", boxedBits(in.Cols)), fmt.Sprintf("%v", boxedBits(out.Cols)); want != have {
			t.Fatalf("%T: records %s, want %s", c.cols, have, want)
		}
		re, _ := out.AppendWire(nil)
		out.release()
		if !bytes.Equal(re, data) {
			t.Fatalf("%T: the re-encoding differs", c.cols)
		}
	}
}

// TestColumnShuffleChunkRoundTrip: a column shuffle chunk crosses the
// wire with its slot, keyed or — when it repeats keys the reduce holds —
// values-only, a smaller frame that decodes to the same header, the key
// epoch it names and the same values bit for bit, and no keys; each
// re-encodes to the same bytes.
func TestColumnShuffleChunkRoundTrip(t *testing.T) {
	f64 := &kv.Cols[float64]{Keys: []int64{-3, 0, 7, 1 << 40}, Vals: []float64{math.Inf(1), math.Copysign(0, -1), math.NaN(), 0.15}}
	i64 := &kv.Cols[int64]{Keys: []int64{2, 5, 9}, Vals: []int64{math.MinInt64, -1, math.MaxInt64}}
	for _, cols := range []records{f64, i64, boxedCols()} {
		var sizes [2]int
		for i, same := range []bool{false, true} {
			in := shuffleChunk{Gen: 3, Iter: 9, FromMap: 2, Seq: 41, End: 5, Slot: 4, KeyEpoch: 9, SameKeys: same, Cols: cols}
			if same {
				in.KeyEpoch = 6
			}
			data, ok := in.AppendWire(nil)
			if !ok {
				t.Fatalf("%T same=%v: did not encode", cols, same)
			}
			sizes[i] = len(data)
			got, err := wireDecoders[in.WireTag()](data)
			if err != nil {
				t.Fatal(err)
			}
			out := got.(shuffleChunk)
			if out.Gen != 3 || out.Iter != 9 || out.FromMap != 2 || out.Seq != 41 || out.End != 5 || out.Slot != 4 ||
				out.KeyEpoch != in.KeyEpoch || out.SameKeys != same || !out.pooled {
				t.Fatalf("%T same=%v: decoded as %+v", cols, same, out)
			}
			sent, came := in.Cols, out.Cols
			if same {
				if len(came.Box(nil)) != 0 {
					t.Fatalf("%T: a values-only chunk decoded with keys", cols)
				}
				sent, came = valsOnly(sent), valsOnly(came)
			}
			if want, have := fmt.Sprintf("%v", boxedBits(sent)), fmt.Sprintf("%v", boxedBits(came)); want != have {
				t.Fatalf("%T same=%v: records %s, want %s", cols, same, have, want)
			}
			re, _ := out.AppendWire(nil)
			out.release()
			if !bytes.Equal(re, data) {
				t.Fatalf("%T same=%v: the re-encoding differs", cols, same)
			}
		}
		if sizes[1] >= sizes[0] {
			t.Fatalf("%T: values-only frame of %d bytes, keyed %d", cols, sizes[1], sizes[0])
		}
	}
}

// valsOnly is a batch's values keyed by position, for comparing a
// values-only chunk with the batch it was sent from.
func valsOnly(c records) records {
	switch cs := c.(type) {
	case *kv.Cols[float64]:
		return keyedByPosition(cs)
	case *kv.Cols[int64]:
		return keyedByPosition(cs)
	case *kv.Cols[any]:
		return keyedByPosition(cs)
	}
	return c
}

func keyedByPosition[V any](cs *kv.Cols[V]) *kv.Cols[V] {
	out := &kv.Cols[V]{Vals: cs.Vals}
	for i := range cs.Vals {
		out.Keys = append(out.Keys, int64(i))
	}
	return out
}

// boxedBits is a column batch's records with float64 values as their
// bit patterns, so NaNs and signed zeros compare exactly.
func boxedBits(c records) []kv.Pair {
	if c == nil {
		return nil
	}
	ps := c.Box(nil)
	for i, p := range ps {
		if f, ok := p.Value.(float64); ok {
			ps[i].Value = math.Float64bits(f)
		}
	}
	return ps
}

// FuzzChunkFrames feeds arbitrary bytes to the decoder of every binary
// frame core registers (which selects it): state and shuffle chunks of
// each value type — float64, int64 and boxed; keyed and values-only — and
// the auxiliary output. A decoder must not panic, must hold a decoded
// chunk to at most one record per two bytes of input (one per byte for a
// values-only chunk, which carries no keys), and what it accepts must
// re-encode under the tag it came in by, to bytes that decode and
// re-encode to themselves.
func FuzzChunkFrames(f *testing.F) {
	tags := slices.Sorted(maps.Keys(wireDecoders))
	head := header(1, 2, 3, 4, 1, 0)
	seed := func(tag string, data []byte) { f.Add(uint8(slices.Index(tags, tag)), data) }
	for _, msg := range []transport.WireMarshaler{
		stateChunk{Gen: 1, Iter: 2, From: 3, Seq: 4, Cols: &kv.Cols[any]{Keys: []int64{5, 300}, Vals: []any{0.5, []int64{1}}}, End: 1},
		stateChunk{Gen: 1, Iter: 2, From: 3, Seq: 4, End: 1},
		stateChunk{Gen: 1, Iter: 2, From: 3, Seq: 4, Cols: &kv.Cols[float64]{Keys: []int64{5, 6}, Vals: []float64{0.5, 1.5}}, End: 1},
		stateChunk{Gen: 1, Iter: 2, From: 3, Seq: 4, Cols: &kv.Cols[int64]{Keys: []int64{5, 6}, Vals: []int64{-5, 6}}, End: 1},
		shuffleChunk{Gen: 1, Iter: 2, FromMap: 3, Seq: 4, Cols: &kv.Cols[any]{Keys: []int64{7}, Vals: []any{"v"}}},
		shuffleChunk{Gen: 1, Iter: 5, FromMap: 3, Seq: 4, Slot: 2, KeyEpoch: 3, SameKeys: true, Cols: &kv.Cols[any]{Vals: []any{2.5, nil}}},
		shuffleChunk{Gen: 1, Iter: 2, FromMap: 3, Seq: 4, Cols: &kv.Cols[float64]{Keys: []int64{1}, Vals: []float64{2}}},
		shuffleChunk{Gen: 1, Iter: 2, FromMap: 3, Seq: 4, Cols: &kv.Cols[int64]{Keys: []int64{1}, Vals: []int64{2}}},
		shuffleChunk{Gen: 1, Iter: 5, FromMap: 3, Seq: 4, Slot: 2, KeyEpoch: 3, SameKeys: true, Cols: &kv.Cols[float64]{Vals: []float64{2, 0.5}}},
		shuffleChunk{Gen: 1, Iter: 5, FromMap: 3, Seq: 4, Slot: 2, KeyEpoch: 3, SameKeys: true, Cols: &kv.Cols[int64]{Vals: []int64{-2, 7}}},
		auxOutMsg{Gen: 1, Iter: 2, Task: 3, Pairs: []kv.Pair{{Key: int64(1), Value: []float64{1, 2}}}},
	} {
		data, ok := msg.AppendWire(nil)
		if !ok {
			f.Fatalf("seed %T did not encode", msg)
		}
		seed(msg.WireTag(), data)
	}
	for _, tag := range tags {
		seed(tag, head[:3]) // a truncated header
		// A hostile count: far more records than the bytes that follow.
		seed(tag, append(kv.AppendUvarint(slices.Clone(head), 1<<40), 2, 4))
	}
	// Wrong-width values: a float64 column of 4-byte values, and an int64
	// column whose varint value runs off the end.
	seed(wireTagStateColsF64, append(kv.AppendUvarint(slices.Clone(head), 1), 2, 0, 0, 0x80, 0x3f))
	seed(wireTagColsI64, append(kv.AppendUvarint(slices.Clone(head), 1), 2, 0x80))
	// Values-only column shuffle frames: a hostile count, a form byte with
	// no epoch after it, and a slot past MaxInt32.
	for _, tag := range []string{wireTagColsF64, wireTagColsI64, wireTagColsAny} {
		seed(tag, kv.AppendUvarint(append(slices.Clone(head), colValuesOnly, 6), 1<<40))
		seed(tag, append(slices.Clone(head), colValuesOnly))
		seed(tag, append(kv.AppendUvarint(header(1, 2, 3, 4, 1, 0)[:5], math.MaxInt32+1), colValuesOnly, 6, 1, 0, 0, 0, 0, 0, 0, 0, 0))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		tag := tags[int(which)%len(tags)]
		first := decodeFrame(t, tag, data)
		if first == nil {
			return
		}
		second := decodeFrame(t, tag, first)
		if second == nil {
			t.Fatalf("%s: the re-encoding of an accepted frame does not decode", tag)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: re-encoding is not stable:\n%x\n%x", tag, first, second)
		}
	})
}

// decodeFrame decodes data as a tag frame and returns its re-encoding,
// or nil when the decoder refuses it. It fails t on a decoded frame with
// more records than half its bytes, or one that re-encodes under another
// tag or not at all.
func decodeFrame(t *testing.T, tag string, data []byte) []byte {
	msg, err := wireDecoders[tag](data)
	if err != nil {
		return nil
	}
	var n int
	perRecord := 2 // bytes a record takes at least
	switch m := msg.(type) {
	case stateChunk:
		defer m.release()
		n = recLen(m.Cols)
	case shuffleChunk:
		defer m.release()
		n = recLen(m.Cols)
		if m.SameKeys {
			perRecord = 1
		}
	case auxOutMsg:
		n = len(m.Pairs)
	default:
		t.Fatalf("%s: decoded a %T", tag, msg)
	}
	if n > len(data)/perRecord {
		t.Fatalf("%s: %d records out of %d bytes", tag, n, len(data))
	}
	wm := msg.(transport.WireMarshaler)
	if got := wm.WireTag(); got != tag {
		t.Fatalf("%s: decoded frame re-encodes as %s", tag, got)
	}
	out, ok := wm.AppendWire(nil)
	if !ok {
		t.Fatalf("%s: decoded frame does not re-encode", tag)
	}
	return out
}
