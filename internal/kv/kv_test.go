package kv

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func intOps() Ops { return OpsFor[int64, float64](nil) }

func TestPartitionInRange(t *testing.T) {
	ops := intOps()
	f := func(key int64, n uint8) bool {
		parts := int(n%31) + 1
		p := ops.Partition(key, parts)
		return p >= 0 && p < parts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	ops := intOps()
	f := func(key int64) bool {
		return ops.Partition(key, 7) == ops.Partition(key, 7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBalance(t *testing.T) {
	// Consecutive integer keys (node ids) must not pile into few
	// partitions; that is the whole point of mix64.
	ops := intOps()
	const n, parts = 100000, 16
	counts := make([]int, parts)
	for i := int64(0); i < n; i++ {
		counts[ops.Partition(i, parts)]++
	}
	want := n / parts
	for p, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("partition %d has %d keys, want within 20%% of %d", p, c, want)
		}
	}
}

func TestHashOfAllKeyTypes(t *testing.T) {
	keys := []any{int(1), int32(2), int64(3), uint64(4), "five", struct{ X int }{6}}
	seen := map[uint64]any{}
	for _, k := range keys {
		h := HashOf(k)
		if h != HashOf(k) {
			t.Fatalf("hash of %T not stable", k)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("suspicious collision between %v and %v", prev, k)
		}
		seen[h] = k
	}
}

func TestKeySizeOf(t *testing.T) {
	if KeySizeOf("abcd") != 8 {
		t.Fatalf("string key size: %d", KeySizeOf("abcd"))
	}
	if KeySizeOf(int64(9)) != 8 || KeySizeOf(struct{}{}) != 8 {
		t.Fatal("non-string keys charge 8 bytes")
	}
}

func TestHashOfStringStable(t *testing.T) {
	if HashOf("abc") != HashOf("abc") {
		t.Fatal("string hash not stable")
	}
	if HashOf("abc") == HashOf("abd") {
		t.Fatal("suspicious collision on near strings")
	}
}

func TestGroupPairs(t *testing.T) {
	ops := intOps()
	pairs := []Pair{
		{int64(2), 1.0}, {int64(1), 2.0}, {int64(2), 3.0}, {int64(1), 4.0}, {int64(3), 5.0},
	}
	groups := GroupPairs(pairs, ops)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	if groups[0].Key != int64(1) || groups[1].Key != int64(2) || groups[2].Key != int64(3) {
		t.Fatalf("groups not sorted by key: %v", groups)
	}
	if groups[0].Values[0] != 2.0 || groups[0].Values[1] != 4.0 {
		t.Fatalf("values lost arrival order: %v", groups[0].Values)
	}
}

func TestGroupPairsProperty(t *testing.T) {
	ops := intOps()
	f := func(keys []int64) bool {
		pairs := make([]Pair, len(keys))
		for i, k := range keys {
			pairs[i] = Pair{k % 16, float64(i)}
		}
		groups := GroupPairs(pairs, ops)
		// Total values preserved and keys strictly increasing.
		total := 0
		for i, g := range groups {
			total += len(g.Values)
			if i > 0 && groups[i-1].Key.(int64) >= g.Key.(int64) {
				return false
			}
		}
		return total == len(pairs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortPairsStable(t *testing.T) {
	ops := intOps()
	pairs := []Pair{{int64(1), "b"}, {int64(0), "x"}, {int64(1), "a"}}
	ops.SortPairs(pairs)
	if pairs[0].Key != int64(0) || pairs[1].Value != "b" || pairs[2].Value != "a" {
		t.Fatalf("stable sort violated: %v", pairs)
	}
}

func TestDefaultSize(t *testing.T) {
	cases := []struct {
		v    any
		want int
	}{
		{nil, 0},
		{true, 1},
		{int(1), 8}, {int64(1), 8}, {uint64(1), 8}, {1.0, 8},
		{int32(1), 4}, {float32(1), 4}, {uint32(1), 4},
		{"abcd", 8},
		{[]byte{1, 2}, 6},
		{[]int32{1, 2, 3}, 16},
		{[]int64{1, 2, 3}, 28},
		{[]float32{1, 2}, 12},
		{[]float64{1, 2}, 20},
		{uint32(1), 4},
		{[]Pair{{Key: int64(1), Value: 2.0}}, 4 + 8 + 8},
		{struct{}{}, 16},
	}
	for _, c := range cases {
		if got := DefaultSize(c.v); got != c.want {
			t.Errorf("DefaultSize(%#v) = %d, want %d", c.v, got, c.want)
		}
	}
}

type sized struct{ n int }

func (s sized) Bytes() int { return s.n }

func TestDefaultSizeSized(t *testing.T) {
	if got := DefaultSize(sized{42}); got != 42 {
		t.Fatalf("Sized override ignored: got %d", got)
	}
}

func TestPairSizeAndOpsFor(t *testing.T) {
	ops := OpsFor[string, []float64](nil)
	p := Pair{"node", []float64{1, 2, 3}}
	want := (4 + 4) + (8*3 + 4)
	if got := ops.PairSize(p); got != want {
		t.Fatalf("PairSize = %d, want %d", got, want)
	}
	custom := OpsFor[int64, int](func(int) int { return 100 })
	if got := custom.PairSize(Pair{int64(1), 7}); got != 8+100 {
		t.Fatalf("custom valSize ignored: %d", got)
	}
}

func TestPartitionPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ops := intOps()
	ops.Partition(int64(1), 0)
}

func BenchmarkHashOfInt64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	keys := make([]int64, 1024)
	for i := range keys {
		keys[i] = r.Int63()
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += HashOf(keys[i%len(keys)])
	}
	_ = sink
}
