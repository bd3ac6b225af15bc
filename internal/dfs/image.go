package dfs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"imapreduce/internal/metrics"
)

// The namenode image is what lets a kill -9'd master come back: block
// *data* already lives in SpillDir files, and the image records the
// file table that points at them (plus the spill sequence counter, so a
// restarted namenode never reuses a spill filename). It is JSON for the
// same reason the checkpoint manifests are — a human debugging a failed
// recovery can read it.

type imageBlock struct {
	DiskPath string   `json:"disk_path"`
	Checksum uint32   `json:"checksum"`
	Count    int      `json:"count"`
	Bytes    int64    `json:"bytes"`
	Replicas []string `json:"replicas"`
}

type imageFile struct {
	Path   string       `json:"path"`
	Bytes  int64        `json:"bytes"`
	Blocks []imageBlock `json:"blocks"`
}

type image struct {
	Seq     int64       `json:"seq"`
	NextPos int         `json:"next_pos"`
	Files   []imageFile `json:"files"`
}

// saveImageLocked persists the namenode state to cfg.ImagePath via
// temp+rename, so a crash mid-save leaves the previous complete image.
// No-op without an ImagePath. Caller holds fs.mu.
func (fs *DFS) saveImageLocked() error {
	if fs.cfg.ImagePath == "" {
		return nil
	}
	img := image{Seq: fs.seq, NextPos: fs.nextPos}
	for _, p := range fs.ns.list("") {
		f, _ := fs.ns.get(p)
		imf := imageFile{Path: p, Bytes: f.bytes, Blocks: make([]imageBlock, len(f.blocks))}
		for i, b := range f.blocks {
			imf.Blocks[i] = imageBlock{
				DiskPath: b.diskPath,
				Checksum: b.checksum,
				Count:    b.count,
				Bytes:    b.bytes,
				Replicas: append([]string(nil), b.replicas...),
			}
		}
		img.Files = append(img.Files, imf)
	}
	data, err := json.MarshalIndent(img, "", " ")
	if err != nil {
		return fmt.Errorf("dfs: encode image: %w", err)
	}
	tmp := fs.cfg.ImagePath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("dfs: write image: %w", err)
	}
	if err := os.Rename(tmp, fs.cfg.ImagePath); err != nil {
		return fmt.Errorf("dfs: commit image: %w", err)
	}
	return nil
}

// Open creates a DFS over the given datanodes, recovering the file
// table from cfg.ImagePath when an image exists there — the cold-start
// entry point for a restarted master. A missing image means a fresh
// cluster and is not an error; a corrupt one is.
func Open(cfg Config, nodeIDs []string, m *metrics.Set) (*DFS, error) {
	if cfg.ImagePath == "" {
		return nil, fmt.Errorf("dfs: Open requires Config.ImagePath")
	}
	fs := New(cfg, nodeIDs, m)
	data, err := os.ReadFile(cfg.ImagePath)
	if os.IsNotExist(err) {
		return fs, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dfs: read image: %w", err)
	}
	var img image
	if err := json.Unmarshal(data, &img); err != nil {
		return nil, fmt.Errorf("dfs: decode image %s: %w", cfg.ImagePath, err)
	}
	if img.NextPos < 0 {
		return nil, fmt.Errorf("dfs: image %s: negative next_pos %d", cfg.ImagePath, img.NextPos)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.seq = img.Seq
	fs.nextPos = img.NextPos
	for _, imf := range img.Files {
		if _, dup := fs.ns.get(imf.Path); dup {
			return nil, fmt.Errorf("dfs: image %s: %q listed twice", cfg.ImagePath, imf.Path)
		}
		if imf.Bytes < 0 {
			return nil, fmt.Errorf("dfs: image %s: %s has %d bytes", cfg.ImagePath, imf.Path, imf.Bytes)
		}
		f := &file{bytes: imf.Bytes, blocks: make([]*block, len(imf.Blocks))}
		for i, ib := range imf.Blocks {
			if ib.DiskPath == "" {
				return nil, fmt.Errorf("dfs: image %s: %s block %d has no spill file", cfg.ImagePath, imf.Path, i)
			}
			if ib.Count < 0 || ib.Bytes < 0 {
				return nil, fmt.Errorf("dfs: image %s: %s block %d has %d records of %d bytes", cfg.ImagePath, imf.Path, i, ib.Count, ib.Bytes)
			}
			if _, err := os.Stat(ib.DiskPath); err != nil {
				return nil, fmt.Errorf("dfs: image %s: %s block %d: %w", cfg.ImagePath, imf.Path, i, err)
			}
			f.blocks[i] = &block{
				diskPath: ib.DiskPath,
				checksum: ib.Checksum,
				count:    ib.Count,
				bytes:    ib.Bytes,
				replicas: append([]string(nil), ib.Replicas...),
			}
		}
		fs.ns.put(imf.Path, f)
	}
	return fs, nil
}

// ImageInDir is the conventional layout under a master's -data
// directory: the spill files in dir/blocks and the namenode image at
// dir/namenode.json.
func ImageInDir(dir string) (Config, error) {
	blocks := filepath.Join(dir, "blocks")
	if err := os.MkdirAll(blocks, 0o755); err != nil {
		return Config{}, fmt.Errorf("dfs: create block dir: %w", err)
	}
	cfg := DefaultConfig()
	cfg.SpillDir = blocks
	cfg.ImagePath = filepath.Join(dir, "namenode.json")
	return cfg, nil
}
