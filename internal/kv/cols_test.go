package kv

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestPartitionInt64MatchesOps: over 10⁵ keys — consecutive, negative,
// the extremes, random — the unboxed partition is the one Ops.Partition
// picks for the boxed key, at every partition count a job might run.
func TestPartitionInt64MatchesOps(t *testing.T) {
	ops := OpsFor[int64, float64](nil)
	rng := rand.New(rand.NewSource(1))
	keys := []int64{math.MinInt64, math.MaxInt64, -1, 0}
	for len(keys) < 100_000 {
		switch len(keys) % 3 {
		case 0:
			keys = append(keys, int64(len(keys)))
		case 1:
			keys = append(keys, -int64(len(keys)))
		default:
			keys = append(keys, rng.Int63()-rng.Int63())
		}
	}
	for _, n := range []int{1, 2, 3, 4, 7, 16, 100} {
		for _, k := range keys {
			if got, want := PartitionInt64(k, n), ops.Partition(k, n); got != want {
				t.Fatalf("key %d over %d partitions: PartitionInt64 %d, Ops.Partition %d", k, n, got, want)
			}
		}
	}
}

// colsOf returns pairs as a column batch.
func colsOf[V Scalar](pairs []Pair) *Cols[V] {
	c := NewCols[V](len(pairs))
	for _, p := range pairs {
		c.Append(p.Key.(int64), p.Value.(V))
	}
	return c
}

// TestColGrouperMatchesGrouper: grouping a column batch gives the groups
// Grouper gives the same records as pairs — keys ascending, values in
// arrival order — on the counting scatter and on the sort, across
// reuses of one ColGrouper at shrinking and growing sizes.
func TestColGrouperMatchesGrouper(t *testing.T) {
	ops := OpsFor[int64, float64](nil)
	rng := rand.New(rand.NewSource(2))
	var cg ColGrouper[float64]
	for _, shape := range []struct {
		n    int
		span int64
		base int64
	}{
		{1, 1, 0}, {64, 16, 0}, {2000, 500, -250}, {300, 1 << 40, 0},
		{5, 3, math.MaxInt64 - 3}, {5, 3, math.MinInt64}, {4096, 4096, 1 << 33}, {700, 2, -1},
	} {
		pairs := make([]Pair, shape.n)
		for i := range pairs {
			pairs[i] = Pair{Key: shape.base + rng.Int63n(shape.span), Value: float64(i)}
		}
		want := GroupPairs(pairs, ops)
		got := cg.Group(colsOf[float64](pairs))
		if len(got.Keys) != len(want) || len(got.Ends) != len(want) {
			t.Fatalf("n=%d span=%d: %d groups, want %d", shape.n, shape.span, len(got.Keys), len(want))
		}
		for i, w := range want {
			vals := got.Values(i)
			if got.Keys[i] != w.Key.(int64) || len(vals) != len(w.Values) {
				t.Fatalf("n=%d span=%d group %d: key %d with %d values, want %v with %d", shape.n, shape.span, i, got.Keys[i], len(vals), w.Key, len(w.Values))
			}
			for j, v := range vals {
				if v != w.Values[j].(float64) {
					t.Fatalf("n=%d span=%d group %d value %d: %v, want %v", shape.n, shape.span, i, j, v, w.Values[j])
				}
			}
		}
	}
}

// TestColGrouperSteadyStateAllocs: once a ColGrouper has seen an input
// size, grouping it again allocates nothing, on either route.
func TestColGrouperSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race sweep")
	}
	for _, stride := range []int64{1, 1 << 40} {
		c := NewCols[float64](4096)
		for i := 0; i < 4096; i++ {
			c.Append(int64(i%1024)*stride, float64(i))
		}
		var g ColGrouper[float64]
		g.Group(c)
		if allocs := testing.AllocsPerRun(20, func() { g.Group(c) }); allocs != 0 {
			t.Errorf("stride %d: %v allocs per steady-state Group call, want 0", stride, allocs)
		}
	}
}

// TestColsRoundTrip: both value types survive the column encoding bit
// for bit, and a decode appends to what the batch already holds.
func TestColsRoundTrip(t *testing.T) {
	f := &Cols[float64]{
		Keys: []int64{0, -1, math.MaxInt64, math.MinInt64, 7},
		Vals: []float64{math.Inf(1), math.Copysign(0, -1), math.NaN(), math.SmallestNonzeroFloat64, 0.15},
	}
	got := &Cols[float64]{Keys: []int64{42}, Vals: []float64{1}}
	enc := AppendCols(nil, f)
	n, err := DecodeCols(enc, got)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: %d of %d bytes, %v", n, len(enc), err)
	}
	if got.Len() != 6 || got.Keys[0] != 42 {
		t.Fatalf("decode did not append: %v", got.Keys)
	}
	for i := range f.Keys {
		if got.Keys[i+1] != f.Keys[i] || !SameBits(got.Vals[i+1], f.Vals[i]) {
			t.Fatalf("record %d: (%d, %v), want (%d, %v)", i, got.Keys[i+1], got.Vals[i+1], f.Keys[i], f.Vals[i])
		}
	}
	ints := &Cols[int64]{Keys: []int64{3, -3}, Vals: []int64{math.MinInt64, 255}}
	back := new(Cols[int64])
	if _, err := DecodeCols(AppendCols(nil, ints), back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.Vals[0] != math.MinInt64 || back.Vals[1] != 255 || back.Keys[1] != -3 {
		t.Fatalf("int64 columns round trip to %v %v", back.Keys, back.Vals)
	}
}

// TestColsBoxUnbox: Box appends a batch's records as (int64, V) pairs,
// which encode as the pair loops' records do and Unbox takes back bit for
// bit, appending; a pair of any other types fails Unbox and leaves the
// batch as it was.
func TestColsBoxUnbox(t *testing.T) {
	f := &Cols[float64]{Keys: []int64{-1, 0, 9}, Vals: []float64{math.NaN(), math.Copysign(0, -1), 2.5}}
	pairs := f.Box([]Pair{{Key: "kept", Value: 1}})
	if len(pairs) != 4 || pairs[0].Key != "kept" {
		t.Fatalf("Box did not append: %v", pairs)
	}
	pairs = pairs[1:]
	for i, p := range pairs {
		if p.Key != f.Keys[i] || !SameBits(p.Value.(float64), f.Vals[i]) {
			t.Fatalf("pair %d = %v, want (%d, %v)", i, p, f.Keys[i], f.Vals[i])
		}
	}
	boxed, _ := AppendPairs(nil, pairs)
	want, _ := AppendPairs(nil, []Pair{{Key: int64(-1), Value: math.NaN()}, {Key: int64(0), Value: math.Copysign(0, -1)}, {Key: int64(9), Value: 2.5}})
	if !bytes.Equal(boxed, want) {
		t.Fatal("boxed records encode differently from the same pairs")
	}
	back := &Cols[float64]{Keys: []int64{-7}, Vals: []float64{7}}
	if err := back.Unbox(pairs); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 4 || back.Keys[0] != -7 {
		t.Fatalf("Unbox did not append: %v", back.Keys)
	}
	for i := range f.Keys {
		if back.Keys[i+1] != f.Keys[i] || !SameBits(back.Vals[i+1], f.Vals[i]) {
			t.Fatalf("record %d: (%d, %v), want (%d, %v)", i, back.Keys[i+1], back.Vals[i+1], f.Keys[i], f.Vals[i])
		}
	}
	for _, bad := range []Pair{{Key: int32(1), Value: 1.0}, {Key: int64(1), Value: int64(1)}, {Key: int64(1), Value: nil}} {
		if err := back.Unbox([]Pair{{Key: int64(3), Value: 3.0}, bad}); err == nil {
			t.Fatalf("Unbox took %#v", bad)
		}
		if back.Len() != 4 {
			t.Fatalf("a failed Unbox left %d records, want 4", back.Len())
		}
	}
}

// TestDecodeColsRejectsHostileCounts: a count the bytes left cannot hold
// fails before anything grows, and a failed decode leaves the batch as
// it was.
func TestDecodeColsRejectsHostileCounts(t *testing.T) {
	for _, data := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0x0f},
		AppendUvarint(nil, 1<<62),
		append(AppendUvarint(nil, 2), 1, 1, 1, 1), // float values truncated
		append(AppendUvarint(nil, 1), 0x80),       // truncated key
	} {
		dst := &Cols[float64]{Keys: []int64{1}, Vals: []float64{2}}
		if _, err := DecodeCols(data, dst); err == nil {
			t.Fatalf("%x decoded", data)
		}
		if dst.Len() != 1 || cap(dst.Keys) > 64 {
			t.Fatalf("%x: a failed decode left %d records, capacity %d", data, dst.Len(), cap(dst.Keys))
		}
	}
}

// FuzzDecodeCols: arbitrary bytes decode or fail without a panic, growing
// the batch by no more records than the input has bytes, and every
// successful decode round-trips through the encoder.
func FuzzDecodeCols(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendCols(nil, &Cols[float64]{Keys: []int64{1, -2}, Vals: []float64{0.5, math.Inf(1)}}))
	f.Add(AppendCols(nil, &Cols[int64]{Keys: []int64{1, 1 << 40}, Vals: []int64{-9, 3}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzColsRoundTrip[float64](t, data)
		fuzzColsRoundTrip[int64](t, data)
	})
}

func fuzzColsRoundTrip[V Scalar](t *testing.T, data []byte) {
	c := AcquireCols[V]()
	defer c.Release()
	n, err := DecodeCols(data, c)
	if err != nil {
		if c.Len() != 0 {
			t.Fatalf("failed decode of %x left %d records", data, c.Len())
		}
		return
	}
	if c.Len() > len(data) || n > len(data) {
		t.Fatalf("%x: %d records from %d bytes, %d consumed", data, c.Len(), len(data), n)
	}
	enc := AppendCols(nil, c)
	again := new(Cols[V])
	if m, err := DecodeCols(enc, again); err != nil || m != len(enc) {
		t.Fatalf("re-decode of %x: %d of %d bytes, %v", enc, m, len(enc), err)
	}
	if enc2 := AppendCols(nil, again); !bytes.Equal(enc, enc2) {
		t.Fatalf("round trip changed the records: %x then %x", enc, enc2)
	}
}
