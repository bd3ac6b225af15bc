// Package kv provides the key-value record substrate shared by the
// baseline MapReduce engine and the iMapReduce engine: untyped pairs, the
// per-job operation bundle (hashing, ordering, grouping, byte sizing),
// and the one binary record encoding with its one decoder, which boxes
// values on the heap or, given a pooled Slab, into arena memory.
//
// The engines move records as kv.Pair with any-typed keys and values, the
// way Hadoop moves Writables; type safety is restored at the edges by
// OpsFor, the only constructor of the operation bundle, which algorithm
// packages call with their concrete key and value types.
package kv

import (
	"cmp"
	"hash/maphash"
	"reflect"
	"slices"
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
// around without knowing their concrete types: partition hashing, key
// ordering, grouping, and byte-size estimation for communication
// accounting. OpsFor builds it; the zero Ops is invalid (see Valid).
//
// Partitioning hashes with HashOf, so it is deterministic within a run
// and identical for the static and state data of one job (iMapReduce
// joins them by partition). Sizes feed the shuffle and communication
// counters: keys are charged KeySizeOf, values the job's estimate. They
// do not have to be exact, only consistent.
type Ops struct {
	// sortStable is the concrete-key-type stable sort: deterministic
	// output, with typed key access instead of an interface compare.
	sortStable func(ps []Pair)
	// group is the concrete-key-type grouping (see groupFor): typed key
	// access inlines and the 32-byte Pair structs never move.
	group func(g *Grouper, ps []Pair) []Group
	// valSize estimates a value's serialized size in bytes.
	valSize func(value any) int
	// key is the key type OpsFor was given.
	key reflect.Type
}

// Valid reports whether o was built by OpsFor.
func (o *Ops) Valid() bool { return o.key != nil }

// KeyType is the key type o was built for.
func (o *Ops) KeyType() reflect.Type { return o.key }

// PairSize returns the estimated serialized size of p under o.
//
// PairSize and Partition run once per record and take a pointer: a value
// receiver would copy all four funcs per call.
func (o *Ops) PairSize(p Pair) int {
	return KeySizeOf(p.Key) + o.valSize(p.Value)
}

// Partition returns the partition in [0, n) for key.
func (o *Ops) Partition(key any, n int) int {
	if n <= 0 {
		panic("kv: Partition with non-positive partition count")
	}
	return int(HashOf(key) % uint64(n))
}

// SortPairs orders ps by key (stable, so equal keys keep their relative
// value order).
func (o Ops) SortPairs(ps []Pair) { o.sortStable(ps) }

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
	vs := DefaultSize
	if valSize != nil {
		vs = func(v any) int {
			if tv, ok := v.(V); ok {
				return valSize(tv)
			}
			return DefaultSize(v)
		}
	}
	return Ops{
		sortStable: func(ps []Pair) {
			slices.SortStableFunc(ps, func(a, b Pair) int { return cmp.Compare(a.Key.(K), b.Key.(K)) })
		},
		group:   groupFor[K](),
		valSize: vs,
		key:     reflect.TypeFor[K](),
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
