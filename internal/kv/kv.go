// Package kv provides the key-value record substrate shared by the
// baseline MapReduce engine and the iMapReduce engine: untyped pairs, the
// per-job operation bundle (hashing, ordering, byte sizing), and helpers
// to build that bundle from concrete Go types.
//
// The engines move records as kv.Pair with any-typed keys and values, the
// way Hadoop moves Writables; type safety is restored at the edges by the
// generic constructors (OpsFor, SizerFor) that algorithm packages use.
package kv

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
)

// Pair is a single key-value record flowing between map and reduce tasks
// or stored in the distributed file system.
type Pair struct {
	Key   any
	Value any
}

// Group is a reduce-side group: one key with all values shuffled to it.
type Group struct {
	Key    any
	Values []any
}

// Emit is the callback map and reduce functions use to produce output
// records.
type Emit func(key, value any)

// Ops bundles the per-job operations the engines need to move records
// around without knowing their concrete types: partition hashing, output
// ordering, and byte-size estimation for communication accounting.
type Ops struct {
	// Hash maps a key to a uint64 used for partitioning. Must be
	// deterministic within a run and identical for the static and state
	// data of one job (iMapReduce joins them by partition).
	Hash func(key any) uint64
	// Less orders keys; used for deterministic output and (through
	// KeyOrder) for the sorted-merge join of static and state data.
	Less func(a, b any) bool
	// KeySize and ValSize estimate serialized sizes in bytes. They feed
	// the shuffle/communication counters; they do not have to be exact,
	// only consistent.
	KeySize func(key any) int
	ValSize func(value any) int
	// Compare is the three-way form of Less. When set, Grouper.Group and
	// SortPairs take the sort-based fast path. Optional; OpsFor fills it.
	Compare func(a, b any) int
	// sortStable is the concrete-key-type stable sort installed by OpsFor;
	// it avoids the interface-compare indirection of Less/Compare.
	sortStable func(ps []Pair)
	// group is the concrete-key-type grouping installed by OpsFor (see
	// groupFor): typed key access inlines and the 32-byte Pair structs
	// never move.
	group func(g *Grouper, ps []Pair) []Group
}

// PairSize returns the estimated serialized size of p under o.
//
// PairSize and Partition run once per record and take a pointer: Ops is
// seven funcs wide, and a value receiver would copy all 56 bytes per call.
func (o *Ops) PairSize(p Pair) int {
	return o.KeySize(p.Key) + o.ValSize(p.Value)
}

// Partition returns the partition in [0, n) for key.
func (o *Ops) Partition(key any, n int) int {
	if n <= 0 {
		panic("kv: Partition with non-positive partition count")
	}
	return int(o.Hash(key) % uint64(n))
}

// SortPairs orders ps by key (stable, so equal keys keep their relative
// value order). Ops built by OpsFor sort with a concrete-type comparator;
// hand-rolled Ops fall back to o.Less.
func (o Ops) SortPairs(ps []Pair) {
	switch {
	case o.sortStable != nil:
		o.sortStable(ps)
	case o.Compare != nil:
		slices.SortStableFunc(ps, func(a, b Pair) int { return o.Compare(a.Key, b.Key) })
	default:
		sort.SliceStable(ps, func(i, j int) bool { return o.Less(ps[i].Key, ps[j].Key) })
	}
}

// KeyOrder returns o's three-way key comparison: Compare when set,
// otherwise one derived from Less (two calls per comparison), so
// hand-rolled Ops that only order their keys work wherever a merge or a
// binary search needs equality as well as order.
func (o Ops) KeyOrder() func(a, b any) int {
	if o.Compare != nil {
		return o.Compare
	}
	less := o.Less
	return func(a, b any) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	}
}

var hashSeed = maphash.MakeSeed()

// HashOf hashes any comparable key. Common scalar types take a fast
// deterministic path; everything else falls back to maphash.Comparable,
// which is stable within one process (sufficient for partitioning).
func HashOf(key any) uint64 {
	switch k := key.(type) {
	case int:
		return mix64(uint64(k))
	case int32:
		return mix64(uint64(uint32(k)))
	case int64:
		return mix64(uint64(k))
	case uint64:
		return mix64(k)
	case string:
		return hashString(k)
	default:
		return maphash.Comparable(hashSeed, key)
	}
}

// mix64 is the SplitMix64 finalizer: a cheap, well-distributed integer
// hash so that consecutive node ids do not all land in one partition.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is FNV-1a, inlined to avoid an allocation per key.
func hashString(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// LessOf compares two keys of the same ordered dynamic type. It supports
// the scalar key types the algorithms use; other types must supply a
// custom Ops.Less.
func LessOf(a, b any) bool {
	switch x := a.(type) {
	case int:
		return x < b.(int)
	case int32:
		return x < b.(int32)
	case int64:
		return x < b.(int64)
	case uint64:
		return x < b.(uint64)
	case float64:
		return x < b.(float64)
	case string:
		return x < b.(string)
	default:
		panic(fmt.Sprintf("kv: no default ordering for key type %T", a))
	}
}

// KeySizeOf estimates the serialized size of a key.
func KeySizeOf(key any) int {
	switch k := key.(type) {
	case string:
		return len(k) + 4
	default:
		return 8
	}
}

// OpsFor builds an Ops for ordered key type K and value type V. valSize
// estimates the serialized size of a value; pass nil to use DefaultSize.
// Values of other dynamic types (jobs routinely mix message and carrier
// values under one Ops) fall back to DefaultSize.
func OpsFor[K cmp.Ordered, V any](valSize func(V) int) Ops {
	vs := func(v any) int { return DefaultSize(v) }
	if valSize != nil {
		vs = func(v any) int {
			if tv, ok := v.(V); ok {
				return valSize(tv)
			}
			return DefaultSize(v)
		}
	}
	return Ops{
		Hash:    HashOf,
		Less:    func(a, b any) bool { return cmp.Less(a.(K), b.(K)) },
		Compare: func(a, b any) int { return cmp.Compare(a.(K), b.(K)) },
		KeySize: KeySizeOf,
		ValSize: vs,
		sortStable: func(ps []Pair) {
			slices.SortStableFunc(ps, func(a, b Pair) int { return cmp.Compare(a.Key.(K), b.Key.(K)) })
		},
		group: groupFor[K](),
	}
}

// Sized lets value types report their own serialized size to the byte
// accounting.
type Sized interface {
	Bytes() int
}

// DefaultSize estimates the serialized size in bytes of common value
// shapes. Types implementing Sized take precedence.
func DefaultSize(v any) int {
	switch x := v.(type) {
	case nil:
		return 0
	case Sized:
		return x.Bytes()
	case bool:
		return 1
	case int, int64, uint64, float64:
		return 8
	case int32, float32, uint32:
		return 4
	case string:
		return len(x) + 4
	case []byte:
		return len(x) + 4
	case []int32:
		return 4*len(x) + 4
	case []int64:
		return 8*len(x) + 4
	case []float32:
		return 4*len(x) + 4
	case []float64:
		return 8*len(x) + 4
	case []Pair:
		n := 4
		for _, p := range x {
			n += KeySizeOf(p.Key) + DefaultSize(p.Value)
		}
		return n
	default:
		return 16 // opaque value: charge a conservative constant
	}
}
