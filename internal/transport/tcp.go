package transport

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"imapreduce/internal/trace"
)

// ProtocolVersion is the wire protocol generation carried in every hello
// handshake. Bump it whenever the frame format changes incompatibly;
// mixed-version peers then fail fast with a VersionMismatchError instead
// of a confusing decode failure mid-stream.
//
// v2 added the frameDeflate frame type (optional per-frame compression).
// v3 made a data chunk's End a uvarint chunk count instead of a flag byte.
// v4 carries records only in the kv codec: an auxiliary output is a
// binary frame, and a DFS RPC holds its records as an encoded block.
// v5 added the column shuffle frames of int64-keyed scalar jobs.
const ProtocolVersion byte = 5

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
	// DialTimeout bounds one dial plus its hello handshake (default 3s).
	DialTimeout time.Duration
	// DialBackoffBase is the first delay after a failed dial to a peer
	// (default 25ms). Subsequent failures double it up to DialBackoffMax;
	// sends inside the window fail fast with a DialBackoffError rather
	// than hammering the kernel with connection attempts.
	DialBackoffBase time.Duration
	// DialBackoffMax caps the per-peer dial backoff (default 2s).
	DialBackoffMax time.Duration
	// ReadBufferSize and WriteBufferSize size each connection's buffered
	// reader/writer (default 256 KiB). Bigger buffers let a burst of
	// shuffle chunks share one syscall; the write side also bounds how
	// much a single coalesced flush writes at once.
	ReadBufferSize  int
	WriteBufferSize int
	// CompressThreshold enables per-frame flate compression for data
	// frames whose body reaches this many bytes. 0 (the default)
	// disables compression — on fast links the CPU usually costs more
	// than the bytes save; enable it when the network is the bottleneck.
	// A compressed frame that fails to shrink is sent uncompressed, so
	// the threshold never makes traffic bigger.
	CompressThreshold int
}

// TCPNetwork is the real-socket backend. Every endpoint owns a listener;
// the first Send from A to B dials one connection that stays open for
// the lifetime of the network — the persistent sockets the paper builds
// between reduce tasks and their map tasks. Peers are dialed by string
// address: local endpoints resolve through the in-process table, remote
// ones through TCPOptions.Resolver, so the same engine code runs
// single-process or spread across imrmaster/imrworker processes.
//
// Frames are length-prefixed: a 4-byte big-endian body length, a frame
// type byte, then the body. Payloads implementing WireMarshaler — every
// payload that carries records — travel as reflection-free binary
// (frameBin); a marshaler that refuses its payload fails the Send with
// ErrUnencodable. Control messages, registered with RegisterMessage, go
// as a stateless gob encoding per frame (frameGob).
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
	rngMu        sync.Mutex
	rng          *rand.Rand // dial-backoff jitter
	bytes        atomic.Int64
	msgs         atomic.Int64
	dials        atomic.Int64
	dialTries    atomic.Int64
	flushes      atomic.Int64
	compFrames   atomic.Int64
	compSaved    atomic.Int64
	tr           atomic.Pointer[trace.Recorder]
}

// CompressedFrames reports how many data frames went out flate-wrapped
// (CompressThreshold reached and compression shrank the frame).
func (n *TCPNetwork) CompressedFrames() int64 { return n.compFrames.Load() }

// CompressionSaved reports the cumulative bytes compression removed from
// the stream (original frame size minus compressed frame size).
func (n *TCPNetwork) CompressionSaved() int64 { return n.compSaved.Load() }

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
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 3 * time.Second
	}
	if opts.DialBackoffBase <= 0 {
		opts.DialBackoffBase = 25 * time.Millisecond
	}
	if opts.DialBackoffMax <= 0 {
		opts.DialBackoffMax = 2 * time.Second
	}
	if opts.ReadBufferSize <= 0 {
		opts.ReadBufferSize = 256 << 10
	}
	if opts.WriteBufferSize <= 0 {
		opts.WriteBufferSize = 256 << 10
	}
	return &TCPNetwork{
		endpoints:    make(map[string]*tcpEndpoint),
		opts:         opts,
		helloVersion: ProtocolVersion,
		rng:          rand.New(rand.NewSource(time.Now().UnixNano())),
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
	frameGob      byte = 2 // body: stateless gob encoding of wireMessage
	frameBin      byte = 3 // body: binary header + WireMarshaler payload
	frameHelloAck byte = 4 // body: acceptor's version byte, then status byte
	// frameDeflate wraps a frameGob or frameBin frame: the body is a
	// uvarint decompressed length followed by a flate stream of the
	// original [type byte][body]. Sent only when CompressThreshold is
	// set and compressing actually shrank the frame.
	frameDeflate byte = 5
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

// maxInflateRatio is DEFLATE's largest expansion: no compressed byte
// inflates to more than 1032 bytes, so a frameDeflate declaring more is
// corrupt.
const maxInflateRatio = 1032

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

// RegisterMessage registers a control-message type for the gob frame.
// Every concrete type sent as a Payload without implementing
// WireMarshaler must be registered, in an init function.
func RegisterMessage(v any) { gob.Register(v) }

var wireUnmarshalers sync.Map // tag string -> func([]byte) (any, error)

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
	if _, dup := wireUnmarshalers.LoadOrStore(tag, fn); dup {
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
	mu     sync.Mutex
	c      net.Conn
	bw     *bufio.Writer
	dead   bool
	buf    []byte        // frame scratch, reused under mu
	gobBuf bytes.Buffer  // control-message scratch, reused under mu
	fw     *flate.Writer // per-conn compressor, created on first use, reused via Reset
	cw     appendWriter  // compressed-frame scratch, reused under mu
	net    *TCPNetwork
	owner  string // local endpoint address, for flush attribution
	peer   string
}

// appendWriter adapts an append-grown byte slice to io.Writer for the
// flate compressor.
type appendWriter struct{ buf []byte }

func (aw *appendWriter) Write(p []byte) (int, error) {
	aw.buf = append(aw.buf, p...)
	return len(p), nil
}

// maybeCompress flate-wraps a data frame when the network's threshold
// says so and the result is actually smaller; otherwise the frame is
// returned untouched. Called under conn.mu; the returned slice is valid
// until the next buildFrame/maybeCompress on this connection.
func (conn *tcpConn) maybeCompress(frame []byte) []byte {
	th := conn.net.opts.CompressThreshold
	if th <= 0 || len(frame)-4 < th {
		return frame
	}
	if t := frame[4]; t != frameBin && t != frameGob {
		return frame
	}
	conn.cw.buf = append(conn.cw.buf[:0], 0, 0, 0, 0, frameDeflate)
	conn.cw.buf = binary.AppendUvarint(conn.cw.buf, uint64(len(frame)-4))
	if conn.fw == nil {
		// BestSpeed: the point is shedding bytes cheaper than sending
		// them, not archival ratios.
		conn.fw, _ = flate.NewWriter(&conn.cw, flate.BestSpeed)
	} else {
		conn.fw.Reset(&conn.cw)
	}
	if _, err := conn.fw.Write(frame[4:]); err != nil {
		return frame
	}
	if err := conn.fw.Close(); err != nil {
		return frame
	}
	out := conn.cw.buf
	if len(out) >= len(frame) {
		return frame // incompressible: ship the original
	}
	binary.BigEndian.PutUint32(out, uint32(len(out)-4))
	conn.net.compFrames.Add(1)
	conn.net.compSaved.Add(int64(len(frame) - len(out)))
	return out
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

// wireMessage is the gob frame body of a control message.
type wireMessage struct {
	From    string
	Kind    string
	Payload any
	Size    int64
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
			if !c.dead {
				c.dead = true
				c.bw.Flush()
			}
			c.mu.Unlock()
			c.c.Close()
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
	br := bufio.NewReaderSize(c, e.net.opts.ReadBufferSize)
	var hdr [4]byte
	// Frame bodies land in a grow-only buffer reused across frames —
	// each frame's payload is fully consumed (decoded with copies; see
	// RegisterWireUnmarshaler) before the next read overwrites it. A
	// second buffer holds inflated bodies, and the inflater itself is
	// reused via flate.Resetter.
	var body, infBuf []byte
	var inflater io.ReadCloser
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
		if body[0] == frameDeflate {
			dn, m := binary.Uvarint(body[1:])
			if m <= 0 || dn == 0 || dn > maxFrameSize || dn > maxInflateRatio*uint64(len(body)-1-m) {
				return
			}
			if uint64(cap(infBuf)) < dn {
				infBuf = make([]byte, dn)
			}
			infBuf = infBuf[:dn]
			src := bytes.NewReader(body[1+m:])
			if inflater == nil {
				inflater = flate.NewReader(src)
			} else if err := inflater.(flate.Resetter).Reset(src, nil); err != nil {
				return
			}
			if _, err := io.ReadFull(inflater, infBuf); err != nil {
				return
			}
			body, infBuf = infBuf, body // decode the inflated frame; reuse both
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
			c.SetWriteDeadline(time.Now().Add(e.net.opts.DialTimeout))
			_, err := c.Write(ack)
			c.SetWriteDeadline(time.Time{})
			if err != nil || status == helloReject {
				return
			}
		case frameGob:
			var wm wireMessage
			if err := gob.NewDecoder(bytes.NewReader(body[1:])).Decode(&wm); err != nil {
				return
			}
			e.ib.push(Message{From: wm.From, To: e.addr, Kind: wm.Kind, Payload: wm.Payload, Size: wm.Size})
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

func appendLPString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readLPString(data []byte) (string, int, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < l {
		return "", 0, fmt.Errorf("transport: truncated string in frame")
	}
	return string(data[n : n+int(l)]), n + int(l), nil
}

func decodeBinFrame(body []byte, to string) (Message, error) {
	from, n, err := readLPString(body)
	if err != nil {
		return Message{}, err
	}
	kind, m, err := readLPString(body[n:])
	if err != nil {
		return Message{}, err
	}
	n += m
	size, m := binary.Varint(body[n:])
	if m <= 0 {
		return Message{}, fmt.Errorf("transport: truncated size in frame")
	}
	n += m
	tag, m, err := readLPString(body[n:])
	if err != nil {
		return Message{}, err
	}
	n += m
	fn, ok := wireUnmarshalers.Load(tag)
	if !ok {
		return Message{}, fmt.Errorf("transport: no wire unmarshaler for tag %q", tag)
	}
	payload, err := fn.(func([]byte) (any, error))(body[n:])
	if err != nil {
		return Message{}, fmt.Errorf("transport: decode %q payload: %w", tag, err)
	}
	return Message{From: from, To: to, Kind: kind, Payload: payload, Size: size}, nil
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
		// Encoding failure (a refused record, a type gob does not know)
		// is the caller's problem, not the connection's.
		return fmt.Errorf("transport: encode %s->%s: %w", e.addr, to, err)
	}
	frame = conn.maybeCompress(frame)
	if _, err := conn.bw.Write(frame); err != nil {
		conn.dead = true
		conn.c.Close()
		return fmt.Errorf("transport: send %s->%s: %w", e.addr, to, err)
	}
	// Flush inline. A loopback write syscall is cheaper than waking a
	// flusher goroutine, and per-message delivery latency sits on the
	// iteration critical path (sync barriers, reduce→map state return);
	// an extra scheduling hop per frame is exactly what the engine
	// benchmarks show as "syncwait".
	if err := conn.bw.Flush(); err != nil {
		conn.dead = true
		conn.c.Close()
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
// the complete frame (length prefix included). Payloads implementing
// WireMarshaler get the binary frame, or ErrUnencodable if they refuse;
// everything else gets the stateless gob frame.
func (conn *tcpConn) buildFrame(from string, msg Message) ([]byte, error) {
	buf := append(conn.buf[:0], 0, 0, 0, 0)
	if wm, ok := msg.Payload.(WireMarshaler); ok {
		buf = append(buf, frameBin)
		buf = appendLPString(buf, from)
		buf = appendLPString(buf, msg.Kind)
		buf = binary.AppendVarint(buf, msg.Size)
		buf = appendLPString(buf, wm.WireTag())
		out, ok := wm.AppendWire(buf)
		conn.buf = out
		if !ok {
			return nil, fmt.Errorf("%w: %s payload refused", ErrUnencodable, wm.WireTag())
		}
		binary.BigEndian.PutUint32(out, uint32(len(out)-4))
		return out, nil
	}
	buf = append(buf, frameGob)
	conn.gobBuf.Reset()
	wm := wireMessage{From: from, Kind: msg.Kind, Payload: msg.Payload, Size: msg.Size}
	if err := gob.NewEncoder(&conn.gobBuf).Encode(&wm); err != nil {
		conn.buf = buf
		return nil, err
	}
	buf = append(buf, conn.gobBuf.Bytes()...)
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	conn.buf = buf
	return buf, nil
}

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
			dead := c.dead // the flusher marks connections dead asynchronously
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
		g.backoff = e.net.opts.DialBackoffBase
	} else if g.backoff < e.net.opts.DialBackoffMax {
		g.backoff *= 2
		if g.backoff > e.net.opts.DialBackoffMax {
			g.backoff = e.net.opts.DialBackoffMax
		}
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
	raw, err := net.DialTimeout("tcp", target, e.net.opts.DialTimeout)
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
		bw:    bufio.NewWriterSize(cw, e.net.opts.WriteBufferSize),
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
	raw.SetDeadline(time.Now().Add(e.net.opts.DialTimeout))
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
		if !c.dead {
			c.dead = true
			c.bw.Flush()
		}
		c.mu.Unlock()
		c.c.Close()
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
