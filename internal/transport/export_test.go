package transport

import (
	"reflect"
	"sort"
)

// Hooks for the external tests, which link the control messages the
// engine and the DFS register.

// EncodeFrame builds the frame a TCP connection sends for msg.
func EncodeFrame(from string, msg Message) ([]byte, error) {
	var c tcpConn
	return c.buildFrame(from, msg)
}

// DecodeFrame decodes a frame EncodeFrame built.
func DecodeFrame(frame []byte, to string) (Message, error) { return decodeBinFrame(frame[5:], to) }

// MessageTags lists the tags of the registered messages with a type —
// every one but the nil payload's — sorted, and their types.
func MessageTags() ([]string, map[string]reflect.Type) {
	types := map[string]reflect.Type{}
	messages.Range(func(t, m any) bool {
		if t, ok := t.(reflect.Type); ok {
			types[m.(message).tag] = t
		}
		return true
	})
	tags := make([]string, 0, len(types))
	for tag := range types {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	return tags, types
}

// EncodeMessage appends a registered control message's encoding to buf.
func EncodeMessage(buf []byte, m any) ([]byte, error) {
	rm, _ := messages.Load(reflect.TypeOf(m))
	_, out, err := rm.(message).codec(buf, m)
	return out, err
}

// DecodeMessage decodes a payload that arrived under tag.
func DecodeMessage(tag string, data []byte) (any, error) {
	fn, _ := decoders.Load(tag)
	return fn.(func([]byte) (any, error))(data)
}
