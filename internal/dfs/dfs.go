// Package dfs implements the distributed file system both engines store
// input, output and checkpoints in. It mirrors HDFS's architecture at
// the level the paper depends on: files are split into fixed-size blocks,
// each block is replicated on several datanodes, readers prefer a local
// replica, and the namenode tracks placement so the job tracker can
// schedule map tasks near their data.
//
// By default records are stored in memory (a run is one process); sizes
// are tracked from caller-provided estimates so that block splitting,
// replication traffic and locality accounting behave like a
// byte-addressed file system without serializing every record. Setting
// Config.SpillDir switches committed blocks to encoded files on local
// disk (see encodeBlock) — the file-backed storage the paper contrasts
// with Twister's memory-resident design (§6) — at the cost of a
// serialization round trip per block access.
package dfs

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
)

// Config sets the HDFS-like parameters. The paper's experiments use a
// 64 MB block size and (implicitly) 3-way replication.
type Config struct {
	BlockSize   int64 // bytes per block before a new block is cut
	Replication int   // replicas per block (capped at live datanodes)
	// SpillDir, when non-empty, stores committed blocks as files under
	// this directory instead of keeping records in memory. Key and value
	// types need a wire codec (kv.RegisterValueCodec) or a gob
	// registration (kv.RegisterWireType).
	SpillDir string
	// ImagePath, when non-empty, persists the namenode state (the file
	// table, block metadata and spill sequence) to this path on every
	// mutation, temp+rename atomically — the durable image a restarted
	// master recovers with Open. Requires SpillDir: block *data* lives
	// in the spill files the image points at.
	ImagePath string
}

// DefaultConfig matches the paper's Hadoop configuration, scaled to the
// in-memory substrate.
func DefaultConfig() Config {
	return Config{BlockSize: 64 << 20, Replication: 3}
}

type block struct {
	recs     []kv.Pair // nil when spilled to disk
	diskPath string    // non-empty when spilled
	// checksum is the CRC-32 of the block's encoding (encodeBlock). spill
	// records it from the bytes it writes; a memory-resident block
	// computes it on first demand (sum) and keeps it — a committed block
	// never changes, so spill, Checksum and every manifest share one
	// encoding.
	checksum uint32
	sumOnce  sync.Once
	sumErr   error
	count    int
	bytes    int64
	replicas []string
}

// Block encodings, named by the first byte of an encoded block.
const (
	blockGob  byte = iota // gob: some record has a type without a wire codec
	blockWire             // kv.AppendPairs, the format the network carries
)

// encodeBlock serializes a block's records: in the tagged wire codec
// when every key and value has one, in gob otherwise. The bytes are what
// spill writes and what every checksum is taken over. Wire tags of
// registered codecs follow registration order, so a spilled block is
// readable by a restart of the same binary, not by a different one.
func encodeBlock(recs []kv.Pair) ([]byte, error) {
	if data, ok := kv.AppendPairs([]byte{blockWire}, recs); ok {
		return data, nil
	}
	buf := bytes.NewBuffer([]byte{blockGob})
	if err := gob.NewEncoder(buf).Encode(recs); err != nil {
		return nil, fmt.Errorf("dfs: encode block: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeBlock reads an encodeBlock encoding back.
func decodeBlock(data []byte) ([]kv.Pair, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("dfs: decode block: empty")
	}
	var recs []kv.Pair
	var err error
	switch data[0] {
	case blockWire:
		recs, _, err = kv.DecodePairs(data[1:])
	case blockGob:
		err = gob.NewDecoder(bytes.NewReader(data[1:])).Decode(&recs)
	default:
		err = fmt.Errorf("unknown encoding %d", data[0])
	}
	if err != nil {
		return nil, fmt.Errorf("dfs: decode block: %w", err)
	}
	return recs, nil
}

// sum returns the CRC-32 of the block's encoding, identical for the same
// records whether the block sits in memory or was spilled.
func (b *block) sum() (uint32, error) {
	b.sumOnce.Do(func() {
		if b.diskPath != "" {
			return // recorded by spill, or restored from the image
		}
		var data []byte
		if data, b.sumErr = encodeBlock(b.recs); b.sumErr == nil {
			b.checksum = crc32.ChecksumIEEE(data)
		}
	})
	return b.checksum, b.sumErr
}

// load returns the block's records, decoding from disk when spilled and
// verifying the stored checksum first, the way HDFS datanodes verify
// block CRCs on read.
func (b *block) load() ([]kv.Pair, error) {
	if b.diskPath == "" {
		return b.recs, nil
	}
	data, err := os.ReadFile(b.diskPath)
	if err != nil {
		return nil, fmt.Errorf("dfs: read spilled block: %w", err)
	}
	if sum := crc32.ChecksumIEEE(data); sum != b.checksum {
		return nil, fmt.Errorf("dfs: block %s corrupted (crc %08x, want %08x)", b.diskPath, sum, b.checksum)
	}
	return decodeBlock(data)
}

// spill writes the block to dir (with its checksum recorded at the
// namenode) and releases the in-memory records.
func (b *block) spill(dir string, seq int64) error {
	path := filepath.Join(dir, fmt.Sprintf("blk-%08d", seq))
	data, err := encodeBlock(b.recs)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("dfs: spill block: %w", err)
	}
	b.checksum = crc32.ChecksumIEEE(data)
	b.diskPath = path
	b.recs = nil
	return nil
}

type file struct {
	blocks []*block
	bytes  int64
}

// DFS is the namenode plus all datanodes of one simulated cluster.
type DFS struct {
	mu      sync.Mutex
	cfg     Config
	nodes   []string
	alive   map[string]bool
	files   map[string]*file
	rng     *rand.Rand
	nextPos int   // round-robin start for replica placement
	seq     int64 // spill file counter
	m       *metrics.Set
	// writeHook, when set, runs at the start of every file commit with
	// the path being committed; a non-nil return fails the commit. Fault
	// injection for robustness tests: a transient datanode write error
	// looks exactly like this.
	writeHook func(path string) error
}

// SetWriteHook installs (or, with nil, removes) a commit-time fault
// hook: it runs at the start of every file write with the committing
// path, and a returned error fails that commit. The hook may also block
// to widen the race window between a write and a concurrent FailNode.
func (fs *DFS) SetWriteHook(h func(path string) error) {
	fs.mu.Lock()
	fs.writeHook = h
	fs.mu.Unlock()
}

// New creates a DFS over the given datanodes. m may be nil.
func New(cfg Config, nodeIDs []string, m *metrics.Set) *DFS {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultConfig().BlockSize
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	if cfg.ImagePath != "" && cfg.SpillDir == "" {
		panic("dfs: ImagePath requires SpillDir (the image only records block metadata)")
	}
	alive := make(map[string]bool, len(nodeIDs))
	for _, id := range nodeIDs {
		alive[id] = true
	}
	return &DFS{
		cfg:   cfg,
		nodes: append([]string(nil), nodeIDs...),
		alive: alive,
		files: make(map[string]*file),
		rng:   rand.New(rand.NewSource(42)),
		m:     m,
	}
}

// write commits recs as path from atNode (the first replica of every
// block is pinned there when possible, like an HDFS client write),
// replacing any file already there. size(i) is record i's estimated
// size: a block is cut before the record that would take it past
// BlockSize, so a block holds at least one record and an oversized record
// gets one of its own. A block's records are copied once its cut is
// known, in one allocation of their final length. It reports the
// replication write traffic to metrics.
func (fs *DFS) write(path, atNode string, recs []kv.Pair, size func(i int) int) error {
	var blocks []*block
	var total int64
	cur, lo := &block{}, 0
	for i := range recs {
		s := int64(size(i))
		if cur.bytes > 0 && cur.bytes+s > fs.cfg.BlockSize {
			cur.recs = slices.Clone(recs[lo:i])
			blocks = append(blocks, cur)
			cur, lo = &block{}, i
		}
		cur.bytes += s
		total += s
	}
	if lo < len(recs) || len(blocks) == 0 {
		cur.recs = slices.Clone(recs[lo:])
		blocks = append(blocks, cur)
	}

	fs.mu.Lock()
	hook := fs.writeHook
	fs.mu.Unlock()
	if hook != nil {
		// Run outside the namenode lock: the hook may block (to widen a
		// race window) or call back into the DFS (FailNode).
		if err := hook(path); err != nil {
			return fmt.Errorf("dfs: create %s: %w", path, err)
		}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	// Replacing a file releases its spilled blocks.
	if old, ok := fs.files[path]; ok {
		for _, b := range old.blocks {
			if b.diskPath != "" {
				os.Remove(b.diskPath)
			}
		}
	}
	for _, b := range blocks {
		reps, err := fs.placeLocked(atNode)
		if err != nil {
			return fmt.Errorf("dfs: create %s: %w", path, err)
		}
		b.replicas = reps
		b.count = len(b.recs)
		fs.m.Add(metrics.DFSWriteBytes, b.bytes*int64(len(reps)))
		if fs.cfg.SpillDir != "" {
			fs.seq++
			if err := b.spill(fs.cfg.SpillDir, fs.seq); err != nil {
				return err
			}
		}
	}
	fs.files[path] = &file{blocks: blocks, bytes: total}
	return fs.saveImageLocked()
}

// placeLocked picks replica nodes: first the writing node if alive, the
// rest round-robin over live nodes, HDFS-style.
func (fs *DFS) placeLocked(atNode string) ([]string, error) {
	live := fs.liveLocked()
	if len(live) == 0 {
		return nil, fmt.Errorf("no live datanodes")
	}
	want := fs.cfg.Replication
	if want > len(live) {
		want = len(live)
	}
	reps := make([]string, 0, want)
	if atNode != "" && fs.alive[atNode] {
		reps = append(reps, atNode)
	}
	for i := 0; len(reps) < want && i < len(live); i++ {
		cand := live[(fs.nextPos+i)%len(live)]
		dup := false
		for _, r := range reps {
			if r == cand {
				dup = true
				break
			}
		}
		if !dup {
			reps = append(reps, cand)
		}
	}
	fs.nextPos++
	return reps, nil
}

func (fs *DFS) liveLocked() []string {
	live := make([]string, 0, len(fs.nodes))
	for _, id := range fs.nodes {
		if fs.alive[id] {
			live = append(live, id)
		}
	}
	return live
}

// WriteFile writes path from atNode in one call, sizing each record with
// ops. The DFS keeps copies: the caller may reuse recs afterwards.
func (fs *DFS) WriteFile(path, atNode string, recs []kv.Pair, ops kv.Ops) error {
	return fs.write(path, atNode, recs, func(i int) int { return ops.PairSize(recs[i]) })
}

// WriteFileSized is WriteFile with pre-computed per-record sizes — the
// form a remote client ships, since sizing functions cannot cross the
// wire. len(sizes) must equal len(recs).
func (fs *DFS) WriteFileSized(path, atNode string, recs []kv.Pair, sizes []int) error {
	if len(sizes) != len(recs) {
		return fmt.Errorf("dfs: WriteFileSized %s: %d records but %d sizes", path, len(recs), len(sizes))
	}
	return fs.write(path, atNode, recs, func(i int) int { return sizes[i] })
}

// Split describes one block of one file for map-task scheduling.
type Split struct {
	Path      string
	Block     int
	Bytes     int64
	Records   int
	Locations []string // live replica holders
}

// Splits returns one Split per block of path, Hadoop's
// one-map-task-per-block input format.
func (fs *DFS) Splits(path string) ([]Split, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", path)
	}
	splits := make([]Split, len(f.blocks))
	for i, b := range f.blocks {
		locs := make([]string, 0, len(b.replicas))
		for _, r := range b.replicas {
			if fs.alive[r] {
				locs = append(locs, r)
			}
		}
		splits[i] = Split{Path: path, Block: i, Bytes: b.bytes, Records: b.count, Locations: locs}
	}
	return splits, nil
}

// ReadSplit returns the records of one block, read from atNode. It
// accounts the read bytes and whether the read crossed the network.
func (fs *DFS) ReadSplit(s Split, atNode string) ([]kv.Pair, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[s.Path]
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", s.Path)
	}
	if s.Block < 0 || s.Block >= len(f.blocks) {
		return nil, fmt.Errorf("dfs: %s has no block %d", s.Path, s.Block)
	}
	b := f.blocks[s.Block]
	local := false
	anyAlive := false
	for _, r := range b.replicas {
		if fs.alive[r] {
			anyAlive = true
			if r == atNode {
				local = true
			}
		}
	}
	if !anyAlive {
		return nil, fmt.Errorf("dfs: all replicas of %s block %d are down", s.Path, s.Block)
	}
	fs.m.Add(metrics.DFSReadBytes, b.bytes)
	if !local {
		fs.m.Add(metrics.DFSReadRemote, b.bytes)
	}
	return b.load()
}

// ReadFile reads every record of path from atNode, in block order.
func (fs *DFS) ReadFile(path, atNode string) ([]kv.Pair, error) {
	splits, err := fs.Splits(path)
	if err != nil {
		return nil, err
	}
	var out []kv.Pair
	for _, s := range splits {
		recs, err := fs.ReadSplit(s, atNode)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// Stat describes a committed file.
type Stat struct {
	Bytes   int64
	Blocks  int
	Records int
}

// StatFile returns size information for path.
func (fs *DFS) StatFile(path string) (Stat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return Stat{}, fmt.Errorf("dfs: no such file %q", path)
	}
	st := Stat{Bytes: f.bytes, Blocks: len(f.blocks)}
	for _, b := range f.blocks {
		st.Records += b.count
	}
	return st, nil
}

// Exists reports whether path is committed.
func (fs *DFS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// Delete removes path (no error if absent), including any spilled block
// files.
func (fs *DFS) Delete(path string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[path]; ok {
		for _, b := range f.blocks {
			if b.diskPath != "" {
				os.Remove(b.diskPath)
			}
		}
	}
	delete(fs.files, path)
	// Deletion durability is best-effort: a lost image update re-surfaces
	// the file after a restart, which every caller tolerates (deletes are
	// cleanup, and Delete itself reports no errors).
	_ = fs.saveImageLocked()
}

// List returns committed paths with the given prefix, sorted.
func (fs *DFS) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// FailNode marks a datanode dead: its replicas stop serving reads and it
// receives no new replicas until RestoreNode. As in HDFS, the namenode
// then re-replicates every under-replicated block onto live nodes (the
// copy traffic is charged to the write counters).
func (fs *DFS) FailNode(id string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.alive[id] = false
	fs.reReplicateLocked()
	_ = fs.saveImageLocked() // replica moves are recoverable; best-effort
}

// reReplicateLocked restores each block's live replica count to the
// configured factor where enough live nodes exist.
func (fs *DFS) reReplicateLocked() {
	live := fs.liveLocked()
	if len(live) == 0 {
		return
	}
	want := fs.cfg.Replication
	if want > len(live) {
		want = len(live)
	}
	for _, f := range fs.files {
		for _, b := range f.blocks {
			var liveReps []string
			has := map[string]bool{}
			for _, r := range b.replicas {
				if fs.alive[r] {
					liveReps = append(liveReps, r)
					has[r] = true
				}
			}
			if len(liveReps) == 0 || len(liveReps) >= want {
				// Every replica lost: nothing to copy from — the block
				// stays unavailable until a holder is restored.
				continue
			}
			for i := 0; len(liveReps) < want && i < len(live); i++ {
				cand := live[(fs.nextPos+i)%len(live)]
				if has[cand] {
					continue
				}
				liveReps = append(liveReps, cand)
				has[cand] = true
				fs.m.Add(metrics.DFSWriteBytes, b.bytes)
			}
			fs.nextPos++
			// Dead holders are dropped from the block map, as a namenode
			// would after the re-replication completes.
			b.replicas = liveReps
		}
	}
}

// RestoreNode brings a datanode back.
func (fs *DFS) RestoreNode(id string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.alive[id] = true
}

// Rename atomically moves oldPath to newPath under the namenode lock —
// the commit step of a write-temp-then-rename protocol: readers of
// newPath observe either the complete old file or the complete new one,
// never a partial write. A file already at newPath is replaced and its
// spilled blocks released.
func (fs *DFS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[oldPath]
	if !ok {
		return fmt.Errorf("dfs: rename: no such file %q", oldPath)
	}
	if old, ok := fs.files[newPath]; ok && old != f {
		for _, b := range old.blocks {
			if b.diskPath != "" {
				os.Remove(b.diskPath)
			}
		}
	}
	fs.files[newPath] = f
	delete(fs.files, oldPath)
	// Rename is the commit step of write-temp-then-rename protocols
	// (checkpoints, manifests); the image must capture it or a restarted
	// master would see the pre-commit state and re-run from older data.
	return fs.saveImageLocked()
}

// Checksum returns a CRC-32 over path's content: each block contributes
// the CRC of its encoding (the stored spill checksum when the block
// is on disk, one computed on first use and memoised for a
// memory-resident block — the two are identical for the same records),
// and the file checksum chains the per-block CRCs in block order. Replica placement does not affect
// the result, so a checksum recorded in a manifest stays valid across
// datanode failures and re-replication.
func (fs *DFS) Checksum(path string) (uint32, error) {
	fs.mu.Lock()
	f, ok := fs.files[path]
	if !ok {
		fs.mu.Unlock()
		return 0, fmt.Errorf("dfs: checksum: no such file %q", path)
	}
	blocks := append([]*block(nil), f.blocks...)
	fs.mu.Unlock()

	var acc []byte
	for _, b := range blocks {
		sum, err := b.sum()
		if err != nil {
			return 0, fmt.Errorf("dfs: checksum %s: %w", path, err)
		}
		acc = append(acc, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum))
	}
	return crc32.ChecksumIEEE(acc), nil
}
