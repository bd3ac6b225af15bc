package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// Binary value encoding — the one form a record takes over a socket, in
// a DFS block or spill file, and inside an RPC. Every value is one
// uvarint type tag followed by a tag-specific payload; pair lists are a
// uvarint count followed by key/value encodings. Builtin scalars and the
// common slice shapes are handled inline; composite record types register
// a ValueCodec (see RegisterValueCodec). A value whose type has neither
// cannot be encoded: the send or write fails with an error naming the
// type (see Unencodable). Tags are assigned in registration order, which
// agrees across processes built from the same source.

// Builtin wire tags. Custom codecs start at customTagBase.
const (
	tagNil uint64 = iota
	tagBool
	tagInt
	tagInt32
	tagInt64
	tagUint64
	tagFloat32
	tagFloat64
	tagString
	tagBytes
	tagInt32s
	tagInt64s
	tagFloat32s
	tagFloat64s
	tagPairs

	customTagBase uint64 = 32
)

// ValueCodec encodes and decodes one concrete Go type for the binary
// wire format.
type ValueCodec struct {
	// Append appends v's encoding to buf. It is called only with values
	// of the registered dynamic type. ok=false (e.g. a nested any field
	// holds an unregistered type) refuses v, and with it the whole chunk
	// or block.
	Append func(buf []byte, v any) ([]byte, bool)
	// Decode reads one value back and returns it with the number of
	// bytes consumed. A slab decode calls it too: what it returns lives
	// on the heap.
	Decode func(data []byte) (any, int, error)
}

var wireReg = struct {
	sync.RWMutex
	byType map[reflect.Type]uint64
	codecs []ValueCodec
}{byType: make(map[reflect.Type]uint64)}

// RegisterValueCodec registers the binary codec for sample's concrete
// type. It is meant for init functions; registering the same type twice
// panics.
func RegisterValueCodec(sample any, c ValueCodec) {
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("kv: RegisterValueCodec with nil sample")
	}
	if c.Append == nil || c.Decode == nil {
		panic("kv: RegisterValueCodec with incomplete codec")
	}
	wireReg.Lock()
	defer wireReg.Unlock()
	if _, dup := wireReg.byType[t]; dup {
		panic(fmt.Sprintf("kv: value codec for %v registered twice", t))
	}
	wireReg.byType[t] = customTagBase + uint64(len(wireReg.codecs))
	wireReg.codecs = append(wireReg.codecs, c)
}

func lookupCodec(t reflect.Type) (uint64, ValueCodec, bool) {
	wireReg.RLock()
	defer wireReg.RUnlock()
	tag, ok := wireReg.byType[t]
	if !ok {
		return 0, ValueCodec{}, false
	}
	return tag, wireReg.codecs[tag-customTagBase], true
}

func codecFor(tag uint64) (ValueCodec, bool) {
	wireReg.RLock()
	defer wireReg.RUnlock()
	idx := tag - customTagBase
	if idx >= uint64(len(wireReg.codecs)) {
		return ValueCodec{}, false
	}
	return wireReg.codecs[idx], true
}

// Append helpers, exported so custom codecs compose from the same
// primitives the builtin encodings use.

// AppendUvarint appends x in unsigned varint encoding.
func AppendUvarint(buf []byte, x uint64) []byte { return binary.AppendUvarint(buf, x) }

// AppendVarint appends x in zigzag varint encoding.
func AppendVarint(buf []byte, x int64) []byte { return binary.AppendVarint(buf, x) }

// AppendFloat64 appends f as 8 fixed little-endian bytes.
func AppendFloat64(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// AppendFloat32 appends f as 4 fixed little-endian bytes.
func AppendFloat32(buf []byte, f float32) []byte {
	return binary.LittleEndian.AppendUint32(buf, math.Float32bits(f))
}

// Uvarint reads an unsigned varint, returning the value and bytes
// consumed.
func Uvarint(data []byte) (uint64, int, error) {
	x, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, fmt.Errorf("kv: truncated uvarint")
	}
	return x, n, nil
}

// Varint reads a zigzag varint.
func Varint(data []byte) (int64, int, error) {
	x, n := binary.Varint(data)
	if n <= 0 {
		return 0, 0, fmt.Errorf("kv: truncated varint")
	}
	return x, n, nil
}

// Float64At reads 8 fixed little-endian bytes.
func Float64At(data []byte) (float64, int, error) {
	if len(data) < 8 {
		return 0, 0, fmt.Errorf("kv: truncated float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), 8, nil
}

// Float32At reads 4 fixed little-endian bytes.
func Float32At(data []byte) (float32, int, error) {
	if len(data) < 4 {
		return 0, 0, fmt.Errorf("kv: truncated float32")
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(data)), 4, nil
}

// Untagged slice helpers for custom codecs: a uvarint length followed
// by the elements. Zero length decodes to nil.

// sliceLen reads a slice's uvarint length and checks that the bytes left
// can hold that many elements of at least size bytes each, so a hostile
// length fails here instead of in make.
func sliceLen(data []byte, size uint64) (int, int, error) {
	l, n, err := Uvarint(data)
	if err != nil {
		return 0, 0, err
	}
	if l > uint64(len(data)-n)/size {
		return 0, 0, fmt.Errorf("kv: slice length %d exceeds frame", l)
	}
	return int(l), n, nil
}

// AppendInt32Slice appends xs as uvarint length + varint elements.
func AppendInt32Slice(buf []byte, xs []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.AppendVarint(buf, int64(x))
	}
	return buf
}

// Int32SliceAt reads an AppendInt32Slice encoding.
func Int32SliceAt(data []byte) ([]int32, int, error) {
	l, n, err := sliceLen(data, 1)
	if err != nil {
		return nil, 0, err
	}
	if l == 0 {
		return nil, n, nil
	}
	out := make([]int32, l)
	for i := range out {
		x, m, err := Varint(data[n:])
		if err != nil {
			return nil, 0, err
		}
		out[i], n = int32(x), n+m
	}
	return out, n, nil
}

// AppendFloat32Slice appends xs as uvarint length + fixed 4-byte
// elements.
func AppendFloat32Slice(buf []byte, xs []float32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = AppendFloat32(buf, x)
	}
	return buf
}

// Float32SliceAt reads an AppendFloat32Slice encoding.
func Float32SliceAt(data []byte) ([]float32, int, error) {
	l, n, err := sliceLen(data, 4)
	if err != nil {
		return nil, 0, err
	}
	if l == 0 {
		return nil, n, nil
	}
	out := make([]float32, l)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[n:]))
		n += 4
	}
	return out, n, nil
}

// AppendFloat64Slice appends xs as uvarint length + fixed 8-byte
// elements.
func AppendFloat64Slice(buf []byte, xs []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = AppendFloat64(buf, x)
	}
	return buf
}

// Float64SliceAt reads an AppendFloat64Slice encoding.
func Float64SliceAt(data []byte) ([]float64, int, error) {
	l, n, err := sliceLen(data, 8)
	if err != nil {
		return nil, 0, err
	}
	if l == 0 {
		return nil, n, nil
	}
	out := make([]float64, l)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[n:]))
		n += 8
	}
	return out, n, nil
}

// AppendValue appends the tagged binary encoding of v. ok=false means
// v's dynamic type (or a type nested inside it) has no codec, so v
// cannot be encoded; buf is returned truncated to its original length in
// that case.
func AppendValue(buf []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(buf, byte(tagNil)), true
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(buf, byte(tagBool), b), true
	case int:
		return binary.AppendVarint(append(buf, byte(tagInt)), int64(x)), true
	case int32:
		return binary.AppendVarint(append(buf, byte(tagInt32)), int64(x)), true
	case int64:
		return binary.AppendVarint(append(buf, byte(tagInt64)), x), true
	case uint64:
		return binary.AppendUvarint(append(buf, byte(tagUint64)), x), true
	case float32:
		return AppendFloat32(append(buf, byte(tagFloat32)), x), true
	case float64:
		return AppendFloat64(append(buf, byte(tagFloat64)), x), true
	case string:
		buf = binary.AppendUvarint(append(buf, byte(tagString)), uint64(len(x)))
		return append(buf, x...), true
	case []byte:
		buf = binary.AppendUvarint(append(buf, byte(tagBytes)), uint64(len(x)))
		return append(buf, x...), true
	case []int32:
		buf = binary.AppendUvarint(append(buf, byte(tagInt32s)), uint64(len(x)))
		for _, e := range x {
			buf = binary.AppendVarint(buf, int64(e))
		}
		return buf, true
	case []int64:
		buf = binary.AppendUvarint(append(buf, byte(tagInt64s)), uint64(len(x)))
		for _, e := range x {
			buf = binary.AppendVarint(buf, e)
		}
		return buf, true
	case []float32:
		buf = binary.AppendUvarint(append(buf, byte(tagFloat32s)), uint64(len(x)))
		for _, e := range x {
			buf = AppendFloat32(buf, e)
		}
		return buf, true
	case []float64:
		buf = binary.AppendUvarint(append(buf, byte(tagFloat64s)), uint64(len(x)))
		for _, e := range x {
			buf = AppendFloat64(buf, e)
		}
		return buf, true
	case []Pair:
		start := len(buf)
		buf, ok := AppendPairs(append(buf, byte(tagPairs)), x)
		if !ok {
			return buf[:start], false
		}
		return buf, true
	default:
		start := len(buf)
		tag, c, ok := lookupCodec(reflect.TypeOf(v))
		if !ok {
			return buf, false
		}
		buf, ok = c.Append(binary.AppendUvarint(buf, tag), v)
		if !ok {
			return buf[:start], false
		}
		return buf, true
	}
}

// DecodeValue reads one tagged value onto the heap, returning it and the
// bytes consumed.
func DecodeValue(data []byte) (any, int, error) { return decodeValue(data, nil) }

// decodeValue is the one reader of a tagged value. With a nil slab every
// value is boxed on the heap; with a slab, scalars are boxed into its
// cells and strings interned into its byte arena, so a steady-state
// decode allocates nothing for them. Byte and slice shapes and custom
// codecs allocate either way. What it returns outlives the slab (see
// Slab.Release).
func decodeValue(data []byte, s *Slab) (any, int, error) {
	tag, n, err := Uvarint(data)
	if err != nil {
		return nil, 0, err
	}
	rest := data[n:]
	switch tag {
	case tagNil:
		return nil, n, nil
	case tagBool:
		if len(rest) < 1 {
			return nil, 0, fmt.Errorf("kv: truncated bool")
		}
		return box(s, typBool, rest[0] != 0), n + 1, nil
	case tagInt:
		x, m, err := Varint(rest)
		if err != nil {
			return nil, 0, err
		}
		return box(s, typInt, int(x)), n + m, nil
	case tagInt32:
		x, m, err := Varint(rest)
		if err != nil {
			return nil, 0, err
		}
		return box(s, typInt32, int32(x)), n + m, nil
	case tagInt64:
		x, m, err := Varint(rest)
		if err != nil {
			return nil, 0, err
		}
		return box(s, typInt64, x), n + m, nil
	case tagUint64:
		x, m, err := Uvarint(rest)
		if err != nil {
			return nil, 0, err
		}
		return box(s, typUint64, x), n + m, nil
	case tagFloat32:
		x, m, err := Float32At(rest)
		if err != nil {
			return nil, 0, err
		}
		return box(s, typFloat32, x), n + m, nil
	case tagFloat64:
		x, m, err := Float64At(rest)
		if err != nil {
			return nil, 0, err
		}
		return box(s, typFloat64, x), n + m, nil
	case tagString:
		l, m, err := Uvarint(rest)
		if err != nil {
			return nil, 0, err
		}
		if uint64(len(rest)-m) < l {
			return nil, 0, fmt.Errorf("kv: truncated string")
		}
		return s.boxString(rest[m : m+int(l)]), n + m + int(l), nil
	case tagBytes:
		l, m, err := Uvarint(rest)
		if err != nil {
			return nil, 0, err
		}
		if uint64(len(rest)-m) < l {
			return nil, 0, fmt.Errorf("kv: truncated bytes")
		}
		out := make([]byte, l)
		copy(out, rest[m:m+int(l)])
		return out, n + m + int(l), nil
	case tagInt32s:
		xs, m, err := Int32SliceAt(rest)
		return tagged(n, xs, m, err)
	case tagInt64s:
		l, m, err := sliceLen(rest, 1)
		if err != nil {
			return nil, 0, err
		}
		out := make([]int64, l)
		for i := range out {
			x, k, err := Varint(rest[m:])
			if err != nil {
				return nil, 0, err
			}
			out[i], m = x, m+k
		}
		return out, n + m, nil
	case tagFloat32s:
		xs, m, err := Float32SliceAt(rest)
		return tagged(n, xs, m, err)
	case tagFloat64s:
		xs, m, err := Float64SliceAt(rest)
		return tagged(n, xs, m, err)
	case tagPairs:
		ps, m, err := decodePairs(rest, s, false)
		return tagged(n, ps, m, err)
	default:
		c, ok := codecFor(tag)
		if !ok {
			return nil, 0, fmt.Errorf("kv: unknown wire tag %d", tag)
		}
		v, m, err := c.Decode(rest)
		return v, n + m, err
	}
}

// tagged returns an untagged helper's result the way decodeValue does:
// boxed, with the tag's n bytes counted, and no value on error.
func tagged[T any](n int, x T, m int, err error) (any, int, error) {
	if err != nil {
		return nil, 0, err
	}
	return x, n + m, nil
}

// AppendPairs appends the binary encoding of ps: a uvarint count and
// each pair's key/value encodings. ok=false means some pair carries a
// type with no codec; buf is truncated back to its original length and
// Unencodable names the type.
func AppendPairs(buf []byte, ps []Pair) ([]byte, bool) {
	start := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(ps)))
	for _, p := range ps {
		var ok bool
		if buf, ok = AppendValue(buf, p.Key); !ok {
			return buf[:start], false
		}
		if buf, ok = AppendValue(buf, p.Value); !ok {
			return buf[:start], false
		}
	}
	return buf, true
}

// ErrNoCodec marks a record that cannot be encoded because its type has
// no codec (see Unencodable).
var ErrNoCodec = errors.New("kv: no wire codec")

// Unencodable names the dynamic type of the first key or value in ps
// that AppendValue refuses, in an error wrapping ErrNoCodec. It returns
// nil when every record encodes. Callers use it to explain an
// AppendPairs that returned ok=false.
func Unencodable(ps []Pair) error {
	var scratch []byte
	for _, p := range ps {
		for _, v := range [2]any{p.Key, p.Value} {
			var ok bool
			if scratch, ok = AppendValue(scratch[:0], v); !ok {
				return fmt.Errorf("%w for %T", ErrNoCodec, v)
			}
		}
	}
	return nil
}

// DecodePairs reads an AppendPairs encoding back onto the heap,
// returning the pairs and the bytes consumed.
func DecodePairs(data []byte) ([]Pair, int, error) { return decodePairs(data, nil, true) }

// DecodePairsSlab reads an AppendPairs encoding into s: the pair list
// comes from the slab's pooled block and the boxed keys and values from
// its arenas, so a decode that reuses a released slab allocates nothing
// in steady state. data is not retained — string payloads are copied
// into the arena. The pair list follows s's release rule (see Slab).
func DecodePairsSlab(data []byte, s *Slab) ([]Pair, int, error) { return decodePairs(data, s, true) }

// decodePairs is the one pair-list loop. Only a top-level list decoded
// into a slab takes the pooled pair block: a nested list is a value, and
// values outlive the slab, so its backing comes from the heap.
func decodePairs(data []byte, s *Slab, top bool) ([]Pair, int, error) {
	count, n, err := Uvarint(data)
	if err != nil {
		return nil, 0, err
	}
	if count > uint64(len(data)) {
		// Each encoded pair takes at least two bytes; a count beyond the
		// remaining length is corruption, not a huge allocation request.
		return nil, 0, fmt.Errorf("kv: pair count %d exceeds frame", count)
	}
	var ps []Pair
	if top && s != nil {
		ps = s.takePairs(int(count))
	} else {
		ps = make([]Pair, count)
	}
	for i := range ps {
		k, m, err := decodeValue(data[n:], s)
		if err != nil {
			return nil, 0, err
		}
		n += m
		v, m, err := decodeValue(data[n:], s)
		if err != nil {
			return nil, 0, err
		}
		n += m
		ps[i] = Pair{Key: k, Value: v}
	}
	return ps, n, nil
}
