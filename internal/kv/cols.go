package kv

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Column records: the shuffle form of a job whose keys are int64 and
// whose state is one fixed-width scalar per key (DESIGN §5, "Typed
// records over an untyped core"). A batch is two parallel columns, so a
// record costs 16 bytes and no interface box between the user map and
// the user reduce.

// Scalar is the value type a column batch holds.
type Scalar interface{ float64 | int64 }

// Cols is a batch of int64-keyed records: Keys[i] is the key of Vals[i].
type Cols[V Scalar] struct {
	Keys []int64
	Vals []V
}

// NewCols returns an empty batch with room for n records.
func NewCols[V Scalar](n int) *Cols[V] {
	return &Cols[V]{Keys: make([]int64, 0, n), Vals: make([]V, 0, n)}
}

// Len is the number of records in c.
func (c *Cols[V]) Len() int { return len(c.Keys) }

// Cap is the number of records c holds without growing.
func (c *Cols[V]) Cap() int { return min(cap(c.Keys), cap(c.Vals)) }

// Append adds one record.
func (c *Cols[V]) Append(k int64, v V) {
	c.Keys = append(c.Keys, k)
	c.Vals = append(c.Vals, v)
}

// AppendRange adds records [lo, hi) of src.
func (c *Cols[V]) AppendRange(src *Cols[V], lo, hi int) {
	c.Keys = append(c.Keys, src.Keys[lo:hi]...)
	c.Vals = append(c.Vals, src.Vals[lo:hi]...)
}

// Box appends c's records to dst as pairs, each key an int64 and each
// value a V: the form the DFS and the pair loops take.
func (c *Cols[V]) Box(dst []Pair) []Pair {
	dst = slices.Grow(dst, len(c.Keys))
	for i, k := range c.Keys {
		dst = append(dst, Pair{Key: k, Value: c.Vals[i]})
	}
	return dst
}

// Unbox appends pairs whose keys are int64 and whose values are V. A
// pair of any other types fails it, and c is left as it was.
func (c *Cols[V]) Unbox(ps []Pair) error {
	base := len(c.Keys)
	c.Keys = slices.Grow(c.Keys, len(ps))
	c.Vals = slices.Grow(c.Vals, len(ps))
	for _, p := range ps {
		k, kok := p.Key.(int64)
		v, vok := p.Value.(V)
		if !kok || !vok {
			c.Keys, c.Vals = c.Keys[:base], c.Vals[:base]
			return fmt.Errorf("kv: record (%T, %T) in a column batch of (int64, %T)", p.Key, p.Value, v)
		}
		c.Append(k, v)
	}
	return nil
}

// Reset empties c and keeps its capacity; the columns hold no pointers,
// so nothing needs clearing.
func (c *Cols[V]) Reset() {
	c.Keys = c.Keys[:0]
	c.Vals = c.Vals[:0]
}

// colPools hold decode batches, one pool per Scalar type.
var colPools [2]sync.Pool

func colPool[V Scalar]() *sync.Pool {
	if isFloat[V]() {
		return &colPools[0]
	}
	return &colPools[1]
}

// isFloat reports whether V is float64.
func isFloat[V Scalar]() bool {
	var half V = 1
	return half/2 != 0
}

// AcquireCols returns an empty batch from the pool of V's batches. Pair
// it with exactly one Release.
func AcquireCols[V Scalar]() *Cols[V] {
	if c, ok := colPool[V]().Get().(*Cols[V]); ok {
		return c
	}
	return new(Cols[V])
}

// Release empties c and returns it to the pool; c must not be used
// afterwards.
func (c *Cols[V]) Release() {
	c.Reset()
	colPool[V]().Put(c)
}

// PartitionInt64 is Ops.Partition for an unboxed int64 key: the same
// hash, so a record lands on the partition its boxed key would.
func PartitionInt64(k int64, n int) int {
	return int(mix64(uint64(k)) % uint64(n))
}

// SameBits reports whether a and b are the same value bit for bit: for
// float64, +0 and -0 differ and a NaN equals itself.
func SameBits[V Scalar](a, b V) bool {
	if isFloat[V]() {
		return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
	}
	return a == b
}

// AppendCols appends c's column encoding: a uvarint record count, every
// key as a zigzag varint, then every value — a float64 as 8 fixed
// little-endian bytes, an int64 as a zigzag varint.
func AppendCols[V Scalar](buf []byte, c *Cols[V]) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(c.Keys)))
	for _, k := range c.Keys {
		buf = binary.AppendVarint(buf, k)
	}
	if isFloat[V]() {
		for _, v := range c.Vals {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(v)))
		}
		return buf
	}
	for _, v := range c.Vals {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// DecodeCols appends the records of an AppendCols encoding to dst and
// returns the bytes it consumed. The count is checked against the bytes
// left before anything grows, so a hostile count fails instead of
// allocating: dst grows by at most len(data)/2 records.
func DecodeCols[V Scalar](data []byte, dst *Cols[V]) (int, error) {
	minRec := uint64(2) // a one-byte key and a one-byte varint value
	if isFloat[V]() {
		minRec = 9
	}
	l, n, err := sliceLen(data, minRec)
	if err != nil {
		return 0, fmt.Errorf("kv: column count: %w", err)
	}
	base := len(dst.Keys)
	dst.Keys = slices.Grow(dst.Keys, l)[:base+l]
	dst.Vals = slices.Grow(dst.Vals, l)[:base+l]
	keys, vals := dst.Keys[base:], dst.Vals[base:]
	for i := range keys {
		k, m, err := Varint(data[n:])
		if err != nil {
			dst.Keys, dst.Vals = dst.Keys[:base], dst.Vals[:base]
			return 0, err
		}
		keys[i], n = k, n+m
	}
	if isFloat[V]() {
		if len(data)-n < 8*l {
			dst.Keys, dst.Vals = dst.Keys[:base], dst.Vals[:base]
			return 0, fmt.Errorf("kv: truncated column values")
		}
		for i := range vals {
			vals[i] = V(math.Float64frombits(binary.LittleEndian.Uint64(data[n:])))
			n += 8
		}
		return n, nil
	}
	for i := range vals {
		v, m, err := Varint(data[n:])
		if err != nil {
			dst.Keys, dst.Vals = dst.Keys[:base], dst.Vals[:base]
			return 0, err
		}
		vals[i], n = V(v), n+m
	}
	return n, nil
}
