package transport_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	_ "imapreduce/internal/core" // registers the engine's and the DFS's control messages
	"imapreduce/internal/transport"
)

// fill sets every exported field of v, nested structs, slices and maps
// included, to a distinct non-zero value drawn from *n.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n) * -3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range 2 {
			fill(v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for range 2 {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(k, n)
			fill(e, n)
			v.SetMapIndex(k, e)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n)
			}
		}
	default:
		panic(fmt.Sprintf("fill: no value for a %v", v.Type()))
	}
}

// filled returns a message of type t with every exported field set.
func filled(t reflect.Type) any {
	v := reflect.New(t).Elem()
	n := 0
	fill(v, &n)
	return v.Interface()
}

// TestMessagesRoundTrip: every registered control message, each of its
// exported fields set, crosses a frame unchanged — a walk that forgets a
// field decodes it as zero — and its encoding decodes and re-encodes to
// the same bytes.
func TestMessagesRoundTrip(t *testing.T) {
	tags, types := transport.MessageTags()
	if len(tags) < 17 {
		t.Fatalf("%d control messages registered: %v", len(tags), tags)
	}
	for _, tag := range tags {
		want := filled(types[tag])
		frame, err := transport.EncodeFrame("a", transport.Message{Kind: "k", Payload: want, Size: 9})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		got, err := transport.DecodeFrame(frame, "b")
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if !reflect.DeepEqual(got.Payload, want) || got.From != "a" || got.Kind != "k" || got.Size != 9 {
			t.Fatalf("%s: sent %#v, got %#v", tag, want, got)
		}
		enc, _ := transport.EncodeMessage(nil, want)
		dec, err := transport.DecodeMessage(tag, enc)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if re, _ := transport.EncodeMessage(nil, dec); !bytes.Equal(re, enc) {
			t.Fatalf("%s: re-encoding %x differs from %x", tag, re, enc)
		}
	}
}

// FuzzControlMessages feeds arbitrary bytes to the decoder of every
// registered control message (which selects it). A decoder must not
// panic, must allocate in proportion to its input, and what it accepts
// must re-encode to the bytes it came from: the walks read only the
// encoding they write.
func FuzzControlMessages(f *testing.F) {
	tags, types := transport.MessageTags()
	for i, tag := range tags {
		enc, err := transport.EncodeMessage(nil, filled(types[tag]))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), enc)
		f.Add(uint8(i), enc[:len(enc)/2])
		f.Add(uint8(i), append([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, enc...)) // a hostile first length
	}
	const allocPerByte = 256
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		tag := tags[int(which)%len(tags)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := transport.DecodeMessage(tag, data)
		runtime.ReadMemStats(&after)
		if limit := uint64(4<<10 + allocPerByte*len(data)); after.TotalAlloc-before.TotalAlloc > limit {
			t.Fatalf("%s: %d input bytes allocated %d bytes, limit %d", tag, len(data), after.TotalAlloc-before.TotalAlloc, limit)
		}
		if err != nil {
			return
		}
		if reflect.TypeOf(m) != types[tag] {
			t.Fatalf("%s: decoded a %T", tag, m)
		}
		if re, err := transport.EncodeMessage(nil, m); err != nil || !bytes.Equal(re, data) {
			t.Fatalf("%s: %x re-encodes as %x (%v)", tag, data, re, err)
		}
	})
}

// BenchmarkControlFrame builds and decodes the frame of a report, the
// most frequent control message, and of a plan, the largest.
func BenchmarkControlFrame(b *testing.B) {
	_, types := transport.MessageTags()
	for _, tag := range []string{"imr.report", "imr.plan"} {
		msg := transport.Message{Kind: "k", Payload: filled(types[tag]), Size: 64}
		b.Run(tag, func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for range b.N {
				frame, err := transport.EncodeFrame("job/red/0/1", msg)
				if err != nil {
					b.Fatal(err)
				}
				size = len(frame)
				if _, err := transport.DecodeFrame(frame, "job/master"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size), "frame-B")
		})
	}
}
