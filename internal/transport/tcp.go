package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"imapreduce/internal/kv"
	"imapreduce/internal/trace"
)

// ProtocolVersion is the wire protocol generation carried in every hello
// handshake. Bump it whenever the frame format changes incompatibly;
// mixed-version peers then fail fast with a VersionMismatchError instead
// of a confusing decode failure mid-stream.
//
// v2 added a deflate frame type (optional per-frame compression).
// v3 made a data chunk's End a uvarint chunk count instead of a flag byte.
// v4 carries records only in the kv codec: an auxiliary output is a
// binary frame, and a DFS RPC holds its records as an encoded block.
// v5 added the column shuffle frames of int64-keyed scalar jobs.
// v6 removed the deflate frame (type byte 5 is now an unknown frame)
// and the plan's retry tunings.
// v7 added the column state frames of int64-keyed scalar jobs.
// v8 made a column frame's integer columns a base, a width byte and
// fixed-width offsets instead of one varint per element.
// v9 added a slot to every chunk header and a form byte to the column
// shuffle frame, whose values-only form carries a key epoch and no keys.
// v10 removed the pair state and shuffle frames: every job's chunks are
// column frames, an untyped job's values each in its kv codec encoding.
// v11 removed the gob frame (type byte 2 is now an unknown frame): a
// control message is a binary frame too, its fields walked by kv.Fields.
const ProtocolVersion byte = 11

// AddrResolver maps a logical endpoint address (e.g. "job/map/0/3" or
// "ctl/master") to the "host:port" its listener is bound to in another
// process. Returning ok=false means the resolver does not know the peer;
// the dial then fails with an unknown-endpoint error. Resolvers are
// consulted only after the local endpoint table misses, so in-process
// peers never pay the indirection.
type AddrResolver func(logical string) (hostport string, ok bool)

// TCPOptions configures a TCPNetwork. The zero value reproduces the
// historical behavior: loopback listeners on ephemeral ports, no
// cross-process resolution.
type TCPOptions struct {
	// ListenHost is the interface new listeners bind to (default
	// "127.0.0.1"; use "0.0.0.0" to accept off-host peers).
	ListenHost string
	// Resolver resolves logical addresses that are not local to this
	// network — the bridge that lets endpoints live in different
	// processes. Nil restricts dialing to in-process endpoints.
	Resolver AddrResolver
}

const (
	// dialTimeout bounds one dial plus its hello handshake.
	dialTimeout = 3 * time.Second
	// dialBackoffBase is the first delay after a failed dial to a peer.
	// Subsequent failures double it up to dialBackoffMax; sends inside
	// the window fail fast with a DialBackoffError rather than hammering
	// the kernel with connection attempts.
	dialBackoffBase = 25 * time.Millisecond
	dialBackoffMax  = 2 * time.Second
	// connBufferSize sizes each connection's buffered reader and writer.
	// Big buffers let a burst of shuffle chunks share one syscall; the
	// write side also bounds how much a single flush writes at once.
	connBufferSize = 256 << 10
)

// TCPNetwork is the real-socket backend. Every endpoint owns a listener;
// the first Send from A to B dials one connection that stays open for
// the lifetime of the network — the persistent sockets the paper builds
// between reduce tasks and their map tasks. Peers are dialed by string
// address: local endpoints resolve through the in-process table, remote
// ones through TCPOptions.Resolver, so the same engine code runs
// single-process or spread across imrmaster/imrworker processes.
//
// Frames are length-prefixed: a 4-byte big-endian body length, a frame
// type byte, then the body. Every message is one binary frame (frameBin):
// a header of the Message fields and a tag, walked by kv.Fields, then the
// payload the tag names. Payloads implementing WireMarshaler — the chunks
// that carry records — encode themselves; every other payload, a string
// and nil included, is the walk registered for its type with
// RegisterMessage. A payload that cannot be encoded fails the Send with
// ErrUnencodable.
//
// Writes are coalesced: each connection buffers frames in a
// bufio.Writer and a per-connection flusher goroutine flushes when the
// sender goes idle, so a burst of shuffle chunks shares syscalls while
// a lone control message still leaves within microseconds.
type TCPNetwork struct {
	mu        sync.Mutex
	endpoints map[string]*tcpEndpoint
	closed    bool
	opts      TCPOptions
	// helloVersion is what this network advertises and accepts; it is
	// ProtocolVersion except in tests that force a skew.
	helloVersion byte
	// The dial timings and the read buffer size are the constants above
	// except in tests that need them shorter or smaller.
	dialTimeout, backoffBase, backoffMax time.Duration
	readBufferSize                       int

	rngMu     sync.Mutex
	rng       *rand.Rand // dial-backoff jitter
	bytes     atomic.Int64
	msgs      atomic.Int64
	dials     atomic.Int64
	dialTries atomic.Int64
	flushes   atomic.Int64
	tr        atomic.Pointer[trace.Recorder]
}

// CompressedFrames always returns 0: frames are never compressed. It
// stays for the benchmark's transport.tcp_compressed_frames probe.
func (n *TCPNetwork) CompressedFrames() int64 { return 0 }

// SetTrace attaches a recorder; connection flushes emit KindNetFlush
// events into it.
func (n *TCPNetwork) SetTrace(r *trace.Recorder) { n.tr.Store(r) }

// Flushes reports how many buffer flushes have happened (one per frame
// sent: frames flush inline to keep delivery latency off the iteration
// critical path).
func (n *TCPNetwork) Flushes() int64 { return n.flushes.Load() }

// NewTCPNetwork returns an empty TCP network on the loopback interface.
func NewTCPNetwork() *TCPNetwork { return NewTCPNetworkOpts(TCPOptions{}) }

// NewTCPNetworkOpts returns an empty TCP network configured by opts.
func NewTCPNetworkOpts(opts TCPOptions) *TCPNetwork {
	if opts.ListenHost == "" {
		opts.ListenHost = "127.0.0.1"
	}
	return &TCPNetwork{
		endpoints:      make(map[string]*tcpEndpoint),
		opts:           opts,
		helloVersion:   ProtocolVersion,
		dialTimeout:    dialTimeout,
		backoffBase:    dialBackoffBase,
		backoffMax:     dialBackoffMax,
		readBufferSize: connBufferSize,
		rng:            rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Dials returns how many connections have been established; tests use it
// to prove connections are persistent (one per sender/receiver pair).
func (n *TCPNetwork) Dials() int64 { return n.dials.Load() }

// DialAttempts returns how many TCP connection attempts have been made,
// successful or not — the quantity the dial-backoff gate bounds.
func (n *TCPNetwork) DialAttempts() int64 { return n.dialTries.Load() }

// Frame type bytes.
const (
	frameHello    byte = 1 // body: version byte, then sender's logical address
	frameBin      byte = 3 // body: frameHead walk, then the payload its tag names
	frameHelloAck byte = 4 // body: acceptor's version byte, then status byte
)

// Hello-ack status bytes.
const (
	helloAccept byte = 0
	helloReject byte = 1
)

// maxFrameSize bounds a single frame; larger length prefixes are treated
// as stream corruption.
const maxFrameSize = 1 << 30

// minFrameRead is the first allocation for a frame body the receive
// buffer cannot already hold; past it the buffer at most doubles what has
// arrived (see readFrameBody).
const minFrameRead = 64 << 10

// VersionMismatchError reports a hello handshake that failed because the
// two processes speak different protocol generations.
type VersionMismatchError struct {
	Peer   string // logical address dialed
	Local  byte   // our ProtocolVersion
	Remote byte   // what the peer advertised in its hello ack
}

func (e *VersionMismatchError) Error() string {
	return fmt.Sprintf("transport: protocol version mismatch dialing %q: local v%d, peer v%d — rebuild both sides from the same source tree",
		e.Peer, e.Local, e.Remote)
}

// DialBackoffError is returned by Send while a peer's dial-backoff gate
// is armed: a recent dial failed and the next attempt is deferred so a
// hot retry loop cannot turn into a dial storm. It wraps the dial error
// that armed the gate.
type DialBackoffError struct {
	Peer  string
	Until time.Time // when the next dial attempt is allowed
	Err   error     // the dial failure that armed the gate
}

func (e *DialBackoffError) Error() string {
	return fmt.Sprintf("transport: dial %q backing off until %s: %v", e.Peer, e.Until.Format("15:04:05.000"), e.Err)
}

func (e *DialBackoffError) Unwrap() error { return e.Err }

// WireMarshaler is implemented by payload types that encode themselves
// into the binary frame. AppendWire appends the encoding to buf; ok=false
// (a record has no registered codec) refuses the payload, and Send
// returns an error wrapping ErrUnencodable.
type WireMarshaler interface {
	WireTag() string
	AppendWire(buf []byte) ([]byte, bool)
}

// ErrUnencodable marks a Send whose WireMarshaler refused its payload.
// Sending it again cannot help: ReliableSend gives up at once, and the
// connection stays up for the next frame.
var ErrUnencodable = errors.New("transport: payload has no wire encoding")

// decoders holds the decoder of every payload tag: WireMarshalers'
// (RegisterWireUnmarshaler) and control messages' (RegisterMessage).
var decoders sync.Map // tag string -> func([]byte) (any, error)

// messages holds each registered control message type's tag and codec,
// which appends the encoding of v to buf or, given no v, decodes a
// message from buf, and returns the message decoded, the buffer — grown,
// or the input left — and the walk's error.
var messages sync.Map // reflect.Type -> message

type message struct {
	tag   string
	codec func(buf []byte, v any) (any, []byte, error)
}

// The builtin payloads: a string and none.
func init() {
	RegisterMessage("string", func(f *kv.Fields, s *string) { f.String(s) })
	registerMessage("nil", func(buf []byte, _ any) (any, []byte, error) { return nil, buf, nil })
}

// RegisterMessage makes walk the wire form of control message type T,
// whose frames carry tag. It is meant for init functions; a tag or type
// registered twice panics.
func RegisterMessage[T any](tag string, walk func(f *kv.Fields, m *T)) {
	// One closure, as in kv.Register: RegisterMessage inlines into its
	// caller, and the encoder's walker stays on the stack.
	registerMessage(tag, func(buf []byte, v any) (any, []byte, error) {
		if v != nil {
			m, f := v.(T), kv.EncodeFields(buf)
			walk(&f, &m)
			return nil, f.Bytes(), f.Err()
		}
		var m T
		f := kv.DecodeFields(buf)
		walk(&f, &m)
		return m, f.Bytes(), f.Err()
	})
}

// registerMessage adds the codec c under tag and under the type of the
// message it decodes from nothing.
func registerMessage(tag string, c func(buf []byte, v any) (any, []byte, error)) {
	zero, _, _ := c(nil, nil)
	RegisterWireUnmarshaler(tag, func(data []byte) (any, error) {
		m, rest, err := c(data, nil)
		if err == nil && len(rest) > 0 {
			err = fmt.Errorf("transport: %d bytes past the %s message", len(rest), tag)
		}
		return m, err
	})
	if _, dup := messages.LoadOrStore(reflect.TypeOf(zero), message{tag, c}); dup {
		panic(fmt.Sprintf("transport: message type %T registered twice", zero))
	}
}

// RegisterWireUnmarshaler installs the decoder for a WireMarshaler tag.
// It is meant for init functions; duplicate tags panic. Registration is
// process-global, which matches the in-process cluster model: every
// endpoint sees the same registry.
//
// Ownership: data is a window of the connection's reusable frame buffer
// and is overwritten by the next frame. The decoder must copy anything
// it keeps (string(...), arena interning, explicit copies) and must not
// retain data or subslices of it past the call.
func RegisterWireUnmarshaler(tag string, fn func(data []byte) (any, error)) {
	if tag == "" || fn == nil {
		panic("transport: RegisterWireUnmarshaler with empty tag or nil func")
	}
	if _, dup := decoders.LoadOrStore(tag, fn); dup {
		panic(fmt.Sprintf("transport: wire unmarshaler %q registered twice", tag))
	}
}

type tcpEndpoint struct {
	net      *TCPNetwork
	addr     string
	listener net.Listener
	ib       *inbox

	mu      sync.Mutex
	conns   map[string]*tcpConn      // persistent outbound connections by peer
	gates   map[string]*dialGate     // per-peer dial backoff state
	dialing map[string]chan struct{} // single-flight claims; closed when a dial settles
	// epochs counts each peer's invalidations (TCPNetwork.Invalidate). A
	// dial records the count when it is claimed; one that settles under a
	// newer count went to where the peer used to live, so its failure arms
	// no gate and its connection is not installed.
	epochs map[string]uint64
	done   chan struct{}
	// closeOnce makes Close safe to call from two owners at once: a task
	// address's previous host and the one re-binding it.
	closeOnce sync.Once

	// accepted has its own lock so an accept path never waits on e.mu —
	// two endpoints dialing each other must each be able to answer the
	// other's hello while their own dial is in flight.
	acceptMu sync.Mutex
	accepted map[net.Conn]bool // live inbound connections
}

// dialGate tracks exponential dial backoff toward one peer. It is
// guarded by the owning endpoint's mu.
type dialGate struct {
	until   time.Time
	backoff time.Duration
	lastErr error
}

type tcpConn struct {
	mu    sync.Mutex
	c     net.Conn
	bw    *bufio.Writer
	dead  bool
	buf   []byte // frame scratch, reused under mu
	net   *TCPNetwork
	owner string // local endpoint address, for flush attribution
	peer  string
}

// retire marks c dead — flushing what it buffered first when flush is
// set — closes its socket and sends its writer back to the pool. The
// caller holds c.mu. A dead connection's writer is never touched again
// (every user checks dead under c.mu first), so the pool may hand it to
// the next dial at once.
func (c *tcpConn) retire(flush bool) {
	if c.dead {
		return
	}
	c.dead = true
	if flush {
		c.bw.Flush()
	}
	c.c.Close()
	releaseConnWriter(c.bw)
	c.bw = nil
}

// The connections' buffered readers and writers, connBufferSize each,
// are recycled: a run dials dozens of connections, and a fresh pair per
// connection is most of what a short job allocates. A reader goes back
// when its readLoop returns, a writer when its connection is retired. A
// reader of another size (tests shrink readBufferSize) is not pooled.
var readerPool, writerPool sync.Pool

func newConnReader(r io.Reader, size int) *bufio.Reader {
	if size == connBufferSize {
		if br, ok := readerPool.Get().(*bufio.Reader); ok {
			br.Reset(r)
			return br
		}
	}
	return bufio.NewReaderSize(r, size)
}

func releaseConnReader(br *bufio.Reader) {
	if br.Size() == connBufferSize {
		br.Reset(nil)
		readerPool.Put(br)
	}
}

func newConnWriter(w io.Writer) *bufio.Writer {
	if bw, ok := writerPool.Get().(*bufio.Writer); ok {
		bw.Reset(w)
		return bw
	}
	return bufio.NewWriterSize(w, connBufferSize)
}

func releaseConnWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	writerPool.Put(bw)
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	return n, err
}

// Endpoint implements Network. The listener binds to ListenHost on an
// ephemeral port; use EndpointAt for a fixed, advertisable address.
func (n *TCPNetwork) Endpoint(addr string) (Endpoint, error) {
	return n.endpoint(addr, net.JoinHostPort(n.opts.ListenHost, "0"), true)
}

// EndpointAt registers endpoint addr with its listener bound to the
// explicit TCP address listen (e.g. "127.0.0.1:7070" or ":7070") — the
// well-known bootstrap address a master advertises to workers. Unlike
// Endpoint it refuses to adopt an existing endpoint: a fixed address is
// a claim of exclusive ownership.
func (n *TCPNetwork) EndpointAt(addr, listen string) (Endpoint, error) {
	return n.endpoint(addr, listen, false)
}

func (n *TCPNetwork) endpoint(addr, listen string, reuse bool) (Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("transport: network closed")
	}
	if ep, ok := n.endpoints[addr]; ok {
		if reuse {
			return ep, nil
		}
		return nil, fmt.Errorf("transport: endpoint %q already exists", addr)
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen for %q on %s: %w", addr, listen, err)
	}
	ep := &tcpEndpoint{
		net:      n,
		addr:     addr,
		listener: l,
		ib:       newInbox(),
		conns:    make(map[string]*tcpConn),
		gates:    make(map[string]*dialGate),
		dialing:  make(map[string]chan struct{}),
		epochs:   make(map[string]uint64),
		accepted: make(map[net.Conn]bool),
		done:     make(chan struct{}),
	}
	n.endpoints[addr] = ep
	go ep.accept()
	return ep, nil
}

// ListenAddr reports the host:port endpoint addr's listener is bound to
// — the address to publish in a cluster directory so other processes
// can dial it.
func (n *TCPNetwork) ListenAddr(addr string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep, ok := n.endpoints[addr]
	if !ok {
		return "", false
	}
	return ep.listener.Addr().String(), true
}

// Invalidate drops every cached outbound connection to logical address
// peer and clears its dial-backoff gates, forcing the next Send to
// re-resolve and re-dial. Call it after a directory change remaps peer
// to a different process (task respawn after a worker death). A dial to
// peer already in flight settles without effect: it neither arms a gate
// nor installs its connection.
func (n *TCPNetwork) Invalidate(peer string) {
	n.mu.Lock()
	eps := make([]*tcpEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, e := range eps {
		e.mu.Lock()
		if c, ok := e.conns[peer]; ok {
			delete(e.conns, peer)
			c.mu.Lock()
			c.retire(true)
			c.mu.Unlock()
		}
		delete(e.gates, peer)
		e.epochs[peer]++
		e.mu.Unlock()
	}
}

func (e *tcpEndpoint) accept() {
	for {
		c, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		// Inbound connections must die with the endpoint: a peer whose
		// frames keep landing on a closed endpoint's socket would see its
		// sends succeed into a black hole and never re-dial — exactly the
		// signal a restarted master depends on workers getting.
		e.acceptMu.Lock()
		select {
		case <-e.done: // raced with Close after the listener check
			e.acceptMu.Unlock()
			c.Close()
			continue
		default:
		}
		e.accepted[c] = true
		e.acceptMu.Unlock()
		go func() {
			e.readLoop(c)
			e.acceptMu.Lock()
			delete(e.accepted, c)
			e.acceptMu.Unlock()
		}()
	}
}

func (e *tcpEndpoint) readLoop(c net.Conn) {
	defer c.Close()
	br := newConnReader(c, e.net.readBufferSize)
	defer releaseConnReader(br)
	var hdr [4]byte
	// Frame bodies land in a grow-only buffer reused across frames —
	// each frame's payload is fully consumed (decoded with copies; see
	// RegisterWireUnmarshaler) before the next read overwrites it.
	var body []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > maxFrameSize {
			return
		}
		var err error
		if body, err = readFrameBody(br, body, int(n)); err != nil {
			return
		}
		switch body[0] {
		case frameHello:
			// Connection identification and version negotiation; data
			// frames carry From themselves. The ack is written straight to
			// the socket — the dialer blocks on it before sending data, so
			// there is nothing to interleave with.
			if len(body) < 2 {
				return
			}
			status := helloAccept
			if body[1] != e.net.helloVersion {
				status = helloReject
			}
			ack := []byte{0, 0, 0, 3, frameHelloAck, e.net.helloVersion, status}
			c.SetWriteDeadline(time.Now().Add(e.net.dialTimeout))
			_, err := c.Write(ack)
			c.SetWriteDeadline(time.Time{})
			if err != nil || status == helloReject {
				return
			}
		case frameBin:
			msg, err := decodeBinFrame(body[1:], e.addr)
			if err != nil {
				return
			}
			e.ib.push(msg)
		default:
			return // unknown frame type: stream corruption
		}
	}
}

// readFrameBody reads an n-byte frame body into buf's storage. A buffer
// too small grows only as bytes arrive — to minFrameRead, then by at
// most what has been read — so a length prefix alone cannot make the
// reader allocate much more than its peer really sent.
func readFrameBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(max(len(buf), minFrameRead), n-len(buf)))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// frameHead is a binary frame's header: the Message fields and the tag
// naming the payload's decoder.
type frameHead struct {
	From, Kind string
	Size       int64
	Tag        string
}

func walkHead(f *kv.Fields, h *frameHead) {
	f.String(&h.From, &h.Kind)
	f.Varint(&h.Size)
	f.String(&h.Tag)
}

func decodeBinFrame(body []byte, to string) (Message, error) {
	var h frameHead
	f := kv.DecodeFields(body)
	if walkHead(&f, &h); f.Err() != nil {
		return Message{}, f.Err()
	}
	fn, ok := decoders.Load(h.Tag)
	if !ok {
		return Message{}, fmt.Errorf("transport: no decoder for tag %q", h.Tag)
	}
	payload, err := fn.(func([]byte) (any, error))(f.Bytes())
	if err != nil {
		return Message{}, fmt.Errorf("transport: decode %q payload: %w", h.Tag, err)
	}
	return Message{From: h.From, To: to, Kind: h.Kind, Payload: payload, Size: h.Size}, nil
}

func (e *tcpEndpoint) Addr() string { return e.addr }

// SerializesOnSend implements Serializer: Send encodes the frame into the
// connection's own buffer before it returns, and keeps nothing of msg.
func (e *tcpEndpoint) SerializesOnSend() {}

func (e *tcpEndpoint) Send(to string, msg Message) error {
	select {
	case <-e.done:
		return fmt.Errorf("%w (%s)", errSenderClosed, e.addr)
	default:
	}
	err := e.sendOnce(to, msg)
	if err == nil || errors.Is(err, ErrUnencodable) {
		return err
	}
	// The persistent connection may have died since the last send (peer
	// restart, half-open socket, flush failure marking it dead). The
	// frame was lost with it, so re-dial through connTo once and
	// retransmit instead of surfacing a loss the caller cannot see.
	// Retransmission over a fresh stream is at-least-once: if the first
	// write reached the peer before the connection died, the receiver
	// sees a duplicate.
	if err2 := e.sendOnce(to, msg); err2 != nil {
		return err2
	}
	return nil
}

func (e *tcpEndpoint) sendOnce(to string, msg Message) error {
	conn, err := e.connTo(to)
	if err != nil {
		return err
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.dead {
		return fmt.Errorf("transport: connection %s->%s is down", e.addr, to)
	}
	frame, err := conn.buildFrame(e.addr, msg)
	if err != nil {
		// Encoding failure (a refused record, a payload with no codec) is
		// the caller's problem, not the connection's.
		return fmt.Errorf("transport: encode %s->%s: %w", e.addr, to, err)
	}
	if _, err := conn.bw.Write(frame); err != nil {
		conn.retire(false)
		return fmt.Errorf("transport: send %s->%s: %w", e.addr, to, err)
	}
	// Flush inline. A loopback write syscall is cheaper than waking a
	// flusher goroutine, and per-message delivery latency sits on the
	// iteration critical path (sync barriers, reduce→map state return);
	// an extra scheduling hop per frame is exactly what the engine
	// benchmarks show as "syncwait".
	if err := conn.bw.Flush(); err != nil {
		conn.retire(false)
		return fmt.Errorf("transport: flush %s->%s: %w", e.addr, to, err)
	}
	e.net.flushes.Add(1)
	if tr := e.net.tr.Load(); tr != nil {
		tr.Emit(trace.KindNetFlush, conn.owner, -1, 0,
			trace.Attr{Key: "peer", Value: conn.peer})
	}
	e.net.msgs.Add(1)
	return nil
}

// buildFrame encodes msg into conn's reusable scratch buffer, returning
// the complete frame (length prefix included), or an error wrapping
// ErrUnencodable when its payload cannot be encoded.
func (conn *tcpConn) buildFrame(from string, msg Message) ([]byte, error) {
	h := frameHead{From: from, Kind: msg.Kind, Size: msg.Size}
	m, ok := marshaled, true
	if wm, marshals := msg.Payload.(WireMarshaler); marshals {
		h.Tag = wm.WireTag()
	} else if m, ok = messages.Load(reflect.TypeOf(msg.Payload)); ok {
		h.Tag = m.(message).tag
	} else {
		return nil, fmt.Errorf("%w: %T is not a registered message", ErrUnencodable, msg.Payload)
	}
	f := kv.EncodeFields(append(conn.buf[:0], 0, 0, 0, 0, frameBin))
	walkHead(&f, &h)
	_, out, err := m.(message).codec(f.Bytes(), msg.Payload)
	conn.buf = out
	if err != nil {
		return nil, fmt.Errorf("%w: %s payload: %v", ErrUnencodable, h.Tag, err)
	}
	binary.BigEndian.PutUint32(out, uint32(len(out)-4))
	return out, nil
}

// marshaled is the codec of every WireMarshaler: its own AppendWire.
var marshaled any = message{codec: func(buf []byte, v any) (any, []byte, error) {
	if out, ok := v.(WireMarshaler).AppendWire(buf); ok {
		return nil, out, nil
	}
	return nil, buf, errors.New("refused")
}}

// resolve maps a logical peer address to its TCP listen address: the
// in-process endpoint table first, then the configured resolver.
func (n *TCPNetwork) resolve(peer string) (string, error) {
	n.mu.Lock()
	dst, ok := n.endpoints[peer]
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return "", fmt.Errorf("transport: network closed")
	}
	if ok {
		return dst.listener.Addr().String(), nil
	}
	if n.opts.Resolver != nil {
		if hp, found := n.opts.Resolver(peer); found {
			return hp, nil
		}
	}
	return "", fmt.Errorf("transport: unknown endpoint %q", peer)
}

// connTo returns the persistent connection to peer, dialing it on first
// use. Dials are single-flight per peer and run with e.mu RELEASED: a
// run's first iteration dials every peer pair, and holding the endpoint
// lock across each dial+handshake round trip would serialize all of
// them — and block sends to peers that are already connected — behind
// whichever dial happens to be in flight. Failed dials arm a per-peer
// exponential backoff gate (with jitter); sends inside the window fail
// fast with DialBackoffError — unless the peer was invalidated while the
// dial was in flight (see epochs).
func (e *tcpEndpoint) connTo(peer string) (*tcpConn, error) {
	var claim chan struct{}
	var epoch uint64
	for {
		e.mu.Lock()
		if c, ok := e.conns[peer]; ok {
			c.mu.Lock()
			dead := c.dead // a failed send on another goroutine retires it
			c.mu.Unlock()
			if !dead {
				e.mu.Unlock()
				return c, nil
			}
		}
		if g, ok := e.gates[peer]; ok && time.Now().Before(g.until) {
			// Copy under the lock: armGate rewrites the gate in place.
			backoff := &DialBackoffError{Peer: peer, Until: g.until, Err: g.lastErr}
			e.mu.Unlock()
			return nil, backoff
		}
		inflight, busy := e.dialing[peer]
		if !busy {
			claim = make(chan struct{})
			e.dialing[peer] = claim
			epoch = e.epochs[peer]
			e.mu.Unlock()
			break
		}
		// Another goroutine is mid-dial to this peer: wait for it to
		// settle, then re-check (it installed a conn or armed the gate).
		e.mu.Unlock()
		select {
		case <-inflight:
		case <-e.done:
			return nil, fmt.Errorf("%w (%s)", errSenderClosed, e.addr)
		}
	}

	target, err := e.net.resolve(peer)
	var conn *tcpConn
	if err == nil {
		conn, err = e.dial(peer, target)
	}

	e.mu.Lock()
	delete(e.dialing, peer)
	close(claim)
	moved := e.epochs[peer] != epoch
	if err != nil {
		if conn == nil && target != "" && !moved {
			// Gate only actual dial failures; an unresolvable peer (not
			// registered yet) should not penalize the first real send, and
			// a failure at the peer's previous home says nothing about its
			// new one.
			e.armGate(peer, err)
		}
		e.mu.Unlock()
		return nil, err
	}
	select {
	case <-e.done:
		// The endpoint closed while this dial was in flight; installing
		// the conn now would leak a live socket past Close's sweep.
		e.mu.Unlock()
		conn.c.Close()
		return nil, fmt.Errorf("%w (%s)", errSenderClosed, e.addr)
	default:
	}
	if moved {
		// The connection may lead to the peer's previous home. Dropped; the
		// caller's retry resolves and dials afresh.
		e.mu.Unlock()
		conn.c.Close()
		return nil, fmt.Errorf("transport: %s->%s: peer invalidated during the dial", e.addr, peer)
	}
	delete(e.gates, peer)
	e.conns[peer] = conn // a dead predecessor's socket is already closed
	e.mu.Unlock()
	return conn, nil
}

// Preconnect dials the given peers concurrently in the background,
// warming the persistent connections before first use: a task that is
// about to shuffle to every partition would otherwise pay one
// sequential dial+handshake round trip per peer inside its send loop.
// Failures are ignored — an unresolvable peer arms no gate, and the
// next Send re-dials exactly as without warming.
func (e *tcpEndpoint) Preconnect(peers ...string) {
	for _, p := range peers {
		go func(peer string) {
			_, _ = e.connTo(peer)
		}(p)
	}
}

// armGate records a dial failure against peer, doubling the backoff up
// to the cap. Jitter desynchronizes retry schedules across processes so
// a master restart is not greeted by a thundering herd of re-dials.
func (e *tcpEndpoint) armGate(peer string, err error) {
	g := e.gates[peer]
	if g == nil {
		g = &dialGate{}
		e.gates[peer] = g
	}
	if g.backoff == 0 {
		g.backoff = e.net.backoffBase
	} else if g.backoff < e.net.backoffMax {
		g.backoff = min(2*g.backoff, e.net.backoffMax)
	}
	// Equal jitter: half the backoff is deterministic, half uniform.
	wait := g.backoff/2 + e.net.jitter(g.backoff/2)
	g.until = time.Now().Add(wait)
	g.lastErr = err
}

func (n *TCPNetwork) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return time.Duration(n.rng.Int63n(int64(max) + 1))
}

// dial opens and verifies one connection to peer at target. The hello
// carries our protocol version; the peer's ack either accepts or names
// its own version, which surfaces as a typed VersionMismatchError.
func (e *tcpEndpoint) dial(peer, target string) (*tcpConn, error) {
	e.net.dialTries.Add(1)
	raw, err := net.DialTimeout("tcp", target, e.net.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q at %s: %w", peer, target, err)
	}
	if err := e.handshake(raw, peer); err != nil {
		raw.Close()
		return nil, err
	}
	e.net.dials.Add(1)
	cw := &countingWriter{w: raw, n: &e.net.bytes}
	conn := &tcpConn{
		c:     raw,
		bw:    newConnWriter(cw),
		net:   e.net,
		owner: e.addr,
		peer:  peer,
	}
	return conn, nil
}

// handshake sends the versioned hello and synchronously waits for the
// acceptor's ack, so a dead listener or a version skew is caught at
// dial time rather than surfacing as a decode failure mid-stream.
func (e *tcpEndpoint) handshake(raw net.Conn, peer string) error {
	raw.SetDeadline(time.Now().Add(e.net.dialTimeout))
	defer raw.SetDeadline(time.Time{})
	hello := []byte{0, 0, 0, 0, frameHello, e.net.helloVersion}
	hello = append(hello, e.addr...)
	binary.BigEndian.PutUint32(hello, uint32(len(hello)-4))
	if _, err := raw.Write(hello); err != nil {
		return fmt.Errorf("transport: hello to %q: %w", peer, err)
	}
	e.net.bytes.Add(int64(len(hello)))
	var ack [7]byte
	if _, err := io.ReadFull(raw, ack[:]); err != nil {
		return fmt.Errorf("transport: hello ack from %q: %w", peer, err)
	}
	if binary.BigEndian.Uint32(ack[:4]) != 3 || ack[4] != frameHelloAck {
		return fmt.Errorf("transport: malformed hello ack from %q", peer)
	}
	if ack[6] != helloAccept || ack[5] != e.net.helloVersion {
		return &VersionMismatchError{Peer: peer, Local: e.net.helloVersion, Remote: ack[5]}
	}
	return nil
}

func (e *tcpEndpoint) Recv() <-chan Message { return e.ib.out }

func (e *tcpEndpoint) Close() error {
	// Deregister first, and only this endpoint's own registration: once
	// any Close has returned, Endpoint(addr) binds afresh — even while an
	// earlier, concurrent Close is still tearing the sockets down.
	e.net.mu.Lock()
	if e.net.endpoints[e.addr] == e {
		delete(e.net.endpoints, e.addr)
	}
	e.net.mu.Unlock()
	e.closeOnce.Do(e.shutdown)
	return nil
}

func (e *tcpEndpoint) shutdown() {
	close(e.done)
	e.listener.Close()
	e.mu.Lock()
	for _, c := range e.conns {
		c.mu.Lock()
		c.retire(true)
		c.mu.Unlock()
	}
	e.mu.Unlock()
	e.acceptMu.Lock()
	for c := range e.accepted {
		c.Close()
	}
	e.acceptMu.Unlock()
	e.ib.close()
}

// Close implements Network.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	eps := make([]*tcpEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.closed = true
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

// BytesSent implements Network.
func (n *TCPNetwork) BytesSent() int64 { return n.bytes.Load() }

// Messages implements Network.
func (n *TCPNetwork) Messages() int64 { return n.msgs.Load() }
