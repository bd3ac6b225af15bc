// Block service over the wire: a Service wraps the master's *DFS and
// answers file-system RPCs from worker processes, whose tasks hold a
// *Client implementing the same FS interface. Calls are
// request/response over the framework's own transport (one persistent
// connection each way), matched by request ID. Records cross as an
// encoded block (encodeBlock), the same bytes a spill file holds.
//
// Delivery is at-least-once in both directions — the TCP backend
// retransmits over a fresh stream after a connection death, and the
// client re-sends a request whose response never arrived — so the
// service deduplicates: each (client, request ID) is executed once and
// its response cached for replay. That keeps non-idempotent operations
// (Rename, the commit step of every checkpoint) safe under retries.
package dfs

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"imapreduce/internal/kv"
	"imapreduce/internal/transport"
)

// Message kinds on the block-service endpoint.
const (
	KindDFSReq  = "dfs.req"
	KindDFSResp = "dfs.resp"
)

// Operation names.
const (
	opSplits    = "splits"
	opReadSplit = "readsplit"
	opReadFile  = "readfile"
	opWrite     = "write"
	opStat      = "stat"
	opExists    = "exists"
	opDelete    = "delete"
	opList      = "list"
	opRename    = "rename"
	opChecksum  = "checksum"
	opFailNode  = "failnode"
	opRestore   = "restorenode"
)

type rpcReq struct {
	ID    int64
	Op    string
	Path  string // also the List prefix and the Rename source
	Path2 string // Rename destination
	Node  string // atNode / the failed or restored datanode
	Split Split
	Recs  []byte // encodeBlock of the records to write
	Sizes []int
}

type rpcResp struct {
	ID     int64
	Err    string
	Recs   []byte // encodeBlock of the records read
	Splits []Split
	St     Stat
	Sum    uint32
	OK     bool
	Paths  []string
}

func walkSplit(f *kv.Fields, s *Split) {
	f.String(&s.Path)
	f.Int(&s.Block, &s.Records)
	f.Varint(&s.Bytes)
	f.Strings(&s.Locations)
}

// The RPCs travel as values: a handler works on its own copy.
func init() {
	transport.RegisterMessage("dfs.req", func(f *kv.Fields, r *rpcReq) {
		f.Varint(&r.ID)
		f.String(&r.Op, &r.Path, &r.Path2, &r.Node)
		walkSplit(f, &r.Split)
		f.ByteSlice(&r.Recs)
		kv.Slice(f, &r.Sizes, func(f *kv.Fields, n *int) { f.Int(n) })
	})
	transport.RegisterMessage("dfs.resp", func(f *kv.Fields, r *rpcResp) {
		f.Varint(&r.ID, &r.St.Bytes)
		f.String(&r.Err)
		f.ByteSlice(&r.Recs)
		kv.Slice(f, &r.Splits, walkSplit)
		f.Int(&r.St.Blocks, &r.St.Records)
		f.Uint32(&r.Sum)
		f.Bool(&r.OK)
		f.Strings(&r.Paths)
	})
}

// respCacheSize bounds the per-client replay cache. 256 responses is
// far beyond any plausible in-flight window (clients wait synchronously
// per call), so an evicted entry can no longer be asked for.
const respCacheSize = 256

// Service serves one *DFS on a transport endpoint.
type Service struct {
	fs   *DFS
	ep   transport.Endpoint
	done chan struct{}

	mu   sync.Mutex
	seen map[string]*clientCache
}

type clientCache struct {
	order []int64
	resps map[int64]*rpcResp
}

// Serve starts answering requests arriving on ep against fs. Requests
// are handled sequentially — FIFO per client matters more here than
// throughput, and it makes duplicate suppression exact.
func Serve(fs *DFS, ep transport.Endpoint) *Service {
	s := &Service{fs: fs, ep: ep, done: make(chan struct{}), seen: make(map[string]*clientCache)}
	go s.loop()
	return s
}

// Wait blocks until the serve loop has exited (close the endpoint to
// stop it).
func (s *Service) Wait() { <-s.done }

func (s *Service) loop() {
	defer close(s.done)
	for msg := range s.ep.Recv() {
		req, ok := msg.Payload.(rpcReq)
		if !ok {
			continue // not ours; tolerate stray traffic
		}
		resp := s.respond(msg.From, &req)
		// A lost response is recovered by the client's re-send hitting
		// the replay cache; nothing to do about the error here.
		_ = s.ep.Send(msg.From, transport.Message{Kind: KindDFSResp, Payload: *resp, Size: respSize(resp)})
	}
}

// respond executes req once per (client, ID), replaying the cached
// response for duplicates.
func (s *Service) respond(from string, req *rpcReq) *rpcResp {
	s.mu.Lock()
	cc := s.seen[from]
	if cc == nil {
		cc = &clientCache{resps: make(map[int64]*rpcResp)}
		s.seen[from] = cc
	}
	if r, dup := cc.resps[req.ID]; dup {
		s.mu.Unlock()
		return r
	}
	s.mu.Unlock()

	resp := s.handle(req)

	s.mu.Lock()
	cc.resps[req.ID] = resp
	cc.order = append(cc.order, req.ID)
	if len(cc.order) > respCacheSize {
		delete(cc.resps, cc.order[0])
		cc.order = cc.order[1:]
	}
	s.mu.Unlock()
	return resp
}

func (s *Service) handle(req *rpcReq) *rpcResp {
	resp := &rpcResp{ID: req.ID}
	var err error
	switch req.Op {
	case opSplits:
		resp.Splits, err = s.fs.Splits(req.Path)
	case opReadSplit:
		resp.Recs, err = encodeRead(s.fs.ReadSplit(req.Split, req.Node))
	case opReadFile:
		resp.Recs, err = encodeRead(s.fs.ReadFile(req.Path, req.Node))
	case opWrite:
		var recs []kv.Pair
		if recs, err = decodeBlock(req.Recs); err == nil {
			err = s.fs.WriteFileSized(req.Path, req.Node, recs, req.Sizes)
		}
	case opStat:
		resp.St, err = s.fs.StatFile(req.Path)
	case opExists:
		resp.OK = s.fs.Exists(req.Path)
	case opDelete:
		s.fs.Delete(req.Path)
	case opList:
		resp.Paths = s.fs.List(req.Path)
	case opRename:
		err = s.fs.Rename(req.Path, req.Path2)
	case opChecksum:
		resp.Sum, err = s.fs.Checksum(req.Path)
	case opFailNode:
		s.fs.FailNode(req.Node)
	case opRestore:
		s.fs.RestoreNode(req.Node)
	default:
		err = fmt.Errorf("dfs: unknown op %q", req.Op)
	}
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}

// encodeRead encodes the records a read returned for the response.
func encodeRead(recs []kv.Pair, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return encodeBlock(recs)
}

func respSize(r *rpcResp) int64 {
	n := int64(64 + len(r.Recs) + 24*len(r.Splits))
	for _, p := range r.Paths {
		n += int64(len(p))
	}
	return n
}

func reqSize(r *rpcReq) int64 {
	return int64(64 + len(r.Path) + len(r.Path2) + len(r.Node) + len(r.Recs))
}

// ErrClientClosed is returned by calls in flight when the client's
// endpoint closes underneath them (worker teardown).
var ErrClientClosed = errors.New("dfs: client closed")

const (
	// callTimeout bounds one logical call including all re-sends.
	callTimeout = 15 * time.Second
	// clientSendRetries and clientSendBackoff shape the transport-level
	// retry of each request frame (see transport.ReliableSend).
	clientSendRetries = 4
	clientSendBackoff = 5 * time.Millisecond
)

// Client is the worker-side FS: every call is one RPC to the master's
// Service. Safe for concurrent use by all tasks of a worker.
type Client struct {
	ep     transport.Endpoint
	server string

	mu      sync.Mutex
	nextID  int64
	waiters map[int64]chan *rpcResp
	closed  chan struct{}
}

// NewClient returns a client whose calls go from ep to the Service
// listening on logical address server. Closing ep stops the client;
// in-flight and later calls fail with ErrClientClosed.
func NewClient(ep transport.Endpoint, server string) *Client {
	c := &Client{ep: ep, server: server, waiters: make(map[int64]chan *rpcResp), closed: make(chan struct{})}
	go c.pump()
	return c
}

func (c *Client) pump() {
	for msg := range c.ep.Recv() {
		resp, ok := msg.Payload.(rpcResp)
		if !ok {
			continue
		}
		c.mu.Lock()
		ch := c.waiters[resp.ID]
		delete(c.waiters, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- &resp // buffered; never blocks
		}
	}
	close(c.closed)
}

func (c *Client) call(req *rpcReq) (*rpcResp, error) {
	c.mu.Lock()
	c.nextID++
	req.ID = c.nextID
	ch := make(chan *rpcResp, 1)
	c.waiters[req.ID] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, req.ID)
		c.mu.Unlock()
	}()

	deadline := time.NewTimer(callTimeout)
	defer deadline.Stop()
	msg := transport.Message{Kind: KindDFSReq, Payload: *req, Size: reqSize(req)}
	var lastErr error
	// Re-send the request until the deadline: a response lost to a
	// connection death is recovered by the service's replay cache.
	for attempt := 0; ; attempt++ {
		if _, err := transport.ReliableSend(c.ep, c.server, msg, clientSendRetries, clientSendBackoff); err != nil {
			lastErr = err
		}
		wait := time.NewTimer(callTimeout / 3)
		select {
		case resp := <-ch:
			wait.Stop()
			if resp.Err != "" {
				return nil, errors.New(resp.Err)
			}
			return resp, nil
		case <-wait.C:
			// response overdue; re-send below
		case <-deadline.C:
			wait.Stop()
			if lastErr != nil {
				return nil, fmt.Errorf("dfs: %s %s: no response within %v (last send error: %v)", req.Op, req.Path, callTimeout, lastErr)
			}
			return nil, fmt.Errorf("dfs: %s %s: no response within %v", req.Op, req.Path, callTimeout)
		case <-c.closed:
			wait.Stop()
			return nil, ErrClientClosed
		}
	}
}

// Splits implements FS.
func (c *Client) Splits(path string) ([]Split, error) {
	resp, err := c.call(&rpcReq{Op: opSplits, Path: path})
	if err != nil {
		return nil, err
	}
	return resp.Splits, nil
}

// ReadSplit implements FS.
func (c *Client) ReadSplit(s Split, atNode string) ([]kv.Pair, error) {
	return c.read(&rpcReq{Op: opReadSplit, Split: s, Node: atNode})
}

// ReadFile implements FS.
func (c *Client) ReadFile(path, atNode string) ([]kv.Pair, error) {
	return c.read(&rpcReq{Op: opReadFile, Path: path, Node: atNode})
}

func (c *Client) read(req *rpcReq) ([]kv.Pair, error) {
	resp, err := c.call(req)
	if err != nil {
		return nil, err
	}
	return decodeBlock(resp.Recs)
}

// WriteFile implements FS. Sizes are computed locally — sizing
// functions cannot cross the wire. A record with no codec fails the
// write here, before any request is sent.
func (c *Client) WriteFile(path, atNode string, recs []kv.Pair, ops kv.Ops) error {
	data, err := encodeBlock(recs)
	if err != nil {
		return err
	}
	sizes := make([]int, len(recs))
	for i, p := range recs {
		sizes[i] = ops.PairSize(p)
	}
	_, err = c.call(&rpcReq{Op: opWrite, Path: path, Node: atNode, Recs: data, Sizes: sizes})
	return err
}

// StatFile implements FS.
func (c *Client) StatFile(path string) (Stat, error) {
	resp, err := c.call(&rpcReq{Op: opStat, Path: path})
	if err != nil {
		return Stat{}, err
	}
	return resp.St, nil
}

// Exists implements FS. A failed call reports false — the callers all
// treat Exists as a hint and re-verify through the erroring paths.
func (c *Client) Exists(path string) bool {
	resp, err := c.call(&rpcReq{Op: opExists, Path: path})
	return err == nil && resp.OK
}

// Delete implements FS. Best-effort, like the in-process Delete, which
// reports no errors either: a missed delete is re-collected by the next
// checkpoint GC pass.
func (c *Client) Delete(path string) {
	_, _ = c.call(&rpcReq{Op: opDelete, Path: path})
}

// List implements FS. A failed call lists nothing.
func (c *Client) List(prefix string) []string {
	resp, err := c.call(&rpcReq{Op: opList, Path: prefix})
	if err != nil {
		return nil
	}
	return resp.Paths
}

// Rename implements FS.
func (c *Client) Rename(oldPath, newPath string) error {
	_, err := c.call(&rpcReq{Op: opRename, Path: oldPath, Path2: newPath})
	return err
}

// Checksum implements FS.
func (c *Client) Checksum(path string) (uint32, error) {
	resp, err := c.call(&rpcReq{Op: opChecksum, Path: path})
	if err != nil {
		return 0, err
	}
	return resp.Sum, nil
}

// FailNode implements FS.
func (c *Client) FailNode(id string) {
	_, _ = c.call(&rpcReq{Op: opFailNode, Node: id})
}

// RestoreNode implements FS.
func (c *Client) RestoreNode(id string) {
	_, _ = c.call(&rpcReq{Op: opRestore, Node: id})
}
