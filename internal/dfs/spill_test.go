package dfs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"imapreduce/internal/kv"
)

func spillFS(t *testing.T, replication int) *DFS {
	t.Helper()
	return New(Config{BlockSize: 256, Replication: replication, SpillDir: t.TempDir()}, nodes(3), nil)
}

func spillFiles(t *testing.T, fs *DFS) []string {
	t.Helper()
	got, err := filepath.Glob(filepath.Join(fs.cfg.SpillDir, "blk-*"))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSpillRoundtrip(t *testing.T) {
	fs := spillFS(t, 2)
	in := recs(100) // 16 bytes each, 256-byte blocks → several blocks
	if err := fs.WriteFile("/spill", "a", in, testOps()); err != nil {
		t.Fatal(err)
	}
	if len(spillFiles(t, fs)) == 0 {
		t.Fatal("no blocks spilled to disk")
	}
	out, err := fs.ReadFile("/spill", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("%d records back, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Key != in[i].Key || out[i].Value != in[i].Value {
			t.Fatalf("record %d changed: %v vs %v", i, out[i], in[i])
		}
	}
	// Splits still report correct record counts without touching disk.
	splits, err := fs.Splits("/spill")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range splits {
		total += s.Records
	}
	if total != len(in) {
		t.Fatalf("split records %d, want %d", total, len(in))
	}
}

func TestSpillDeleteRemovesFiles(t *testing.T) {
	fs := spillFS(t, 1)
	if err := fs.WriteFile("/d", "a", recs(50), testOps()); err != nil {
		t.Fatal(err)
	}
	if len(spillFiles(t, fs)) == 0 {
		t.Fatal("nothing spilled")
	}
	fs.Delete("/d")
	if got := spillFiles(t, fs); len(got) != 0 {
		t.Fatalf("delete leaked spill files: %v", got)
	}
}

func TestSpillOverwriteReleasesOldBlocks(t *testing.T) {
	fs := spillFS(t, 1)
	if err := fs.WriteFile("/o", "a", recs(50), testOps()); err != nil {
		t.Fatal(err)
	}
	before := len(spillFiles(t, fs))
	if err := fs.WriteFile("/o", "a", recs(50), testOps()); err != nil {
		t.Fatal(err)
	}
	after := len(spillFiles(t, fs))
	if after != before {
		t.Fatalf("overwrite leaked: %d -> %d spill files", before, after)
	}
	out, err := fs.ReadFile("/o", "a")
	if err != nil || len(out) != 50 {
		t.Fatalf("read after overwrite: %d, %v", len(out), err)
	}
}

func TestSpillComplexValues(t *testing.T) {
	fs := spillFS(t, 1)
	in := []kv.Pair{
		{Key: int64(1), Value: []float64{1.5, 2.5}},
		{Key: int64(2), Value: "hello"},
		{Key: int64(3), Value: []int32{7, 8, 9}},
	}
	if err := fs.WriteFile("/c", "a", in, testOps()); err != nil {
		t.Fatal(err)
	}
	out, err := fs.ReadFile("/c", "a")
	if err != nil {
		t.Fatal(err)
	}
	if out[1].Value.(string) != "hello" {
		t.Fatalf("string value lost: %v", out[1])
	}
	if vs := out[0].Value.([]float64); vs[1] != 2.5 {
		t.Fatalf("slice value lost: %v", vs)
	}
}

func TestSpillCorruptionDetected(t *testing.T) {
	fs := spillFS(t, 1)
	if err := fs.WriteFile("/crc", "a", recs(20), testOps()); err != nil {
		t.Fatal(err)
	}
	files := spillFiles(t, fs)
	if len(files) == 0 {
		t.Fatal("nothing spilled")
	}
	// Flip a byte in the middle of the first block file.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = fs.ReadFile("/crc", "a")
	if err == nil {
		t.Fatal("corrupted block read succeeded")
	}
	if !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("error should name corruption: %v", err)
	}
}

func TestSpillMissingFileErrors(t *testing.T) {
	fs := spillFS(t, 1)
	if err := fs.WriteFile("/m", "a", recs(5), testOps()); err != nil {
		t.Fatal(err)
	}
	for _, p := range spillFiles(t, fs) {
		os.Remove(p)
	}
	if _, err := fs.ReadFile("/m", "a"); err == nil {
		t.Fatal("expected error reading vanished spill file")
	}
}

// TestChecksumMemoMatchesSpill pins the value the memoised checksum must
// keep: a memory-resident file and a spilled file with the same records
// report the same CRC (manifests written against either verify against
// the other), repeated calls agree, and concurrent first calls are safe.
func TestChecksumMemoMatchesSpill(t *testing.T) {
	mem := New(Config{BlockSize: 256, Replication: 2}, nodes(3), nil)
	disk := spillFS(t, 2)
	for _, fs := range []*DFS{mem, disk} {
		if err := fs.WriteFile("/f", "a", recs(100), testOps()); err != nil {
			t.Fatal(err)
		}
	}
	want, err := disk.Checksum("/f")
	if err != nil {
		t.Fatal(err)
	}
	sums := make(chan uint32, 4)
	for i := 0; i < cap(sums); i++ {
		go func() {
			sum, err := mem.Checksum("/f")
			if err != nil {
				t.Error(err)
			}
			sums <- sum
		}()
	}
	for i := 0; i < cap(sums); i++ {
		if got := <-sums; got != want {
			t.Fatalf("memory-resident checksum %08x, spilled %08x", got, want)
		}
	}
}

// opaque has no wire codec, only a gob registration: a block holding one
// takes encodeBlock's gob fallback.
type opaque struct{ A, B int }

func init() { kv.RegisterWireType(opaque{}) }

// TestSpillReopenBothEncodings writes one file whose records all have a
// wire codec and one with a gob-only value type, reopens the DFS from its
// image as a restarted master does, and reads both back: each block names
// its encoding in its first byte, the records survive, and the checksum a
// manifest would have recorded before the restart still verifies.
func TestSpillReopenBothEncodings(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{BlockSize: 256, Replication: 2, SpillDir: dir, ImagePath: filepath.Join(dir, "image.json")}
	files := map[string]struct {
		recs     []kv.Pair
		encoding byte
	}{
		"/wire": {recs(40), blockWire},
		"/gob":  {[]kv.Pair{{Key: int64(1), Value: opaque{1, 2}}, {Key: int64(2), Value: 2.5}}, blockGob},
	}
	fs1, err := Open(cfg, nodes(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]uint32{}
	for path, f := range files {
		if err := fs1.WriteFile(path, "a", f.recs, testOps()); err != nil {
			t.Fatal(err)
		}
		if sums[path], err = fs1.Checksum(path); err != nil {
			t.Fatal(err)
		}
		stored, _ := fs1.ns.get(path)
		for _, b := range stored.blocks {
			data, err := os.ReadFile(b.diskPath)
			if err != nil {
				t.Fatal(err)
			}
			if data[0] != f.encoding {
				t.Fatalf("%s: block encoding %d, want %d", path, data[0], f.encoding)
			}
		}
	}

	fs2, err := Open(cfg, nodes(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	for path, f := range files {
		out, err := fs2.ReadFile(path, "b")
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(f.recs) {
			t.Fatalf("%s: %d records back, want %d", path, len(out), len(f.recs))
		}
		for i := range out {
			if out[i] != f.recs[i] {
				t.Fatalf("%s: record %d changed: %v vs %v", path, i, out[i], f.recs[i])
			}
		}
		if sum, err := fs2.Checksum(path); err != nil || sum != sums[path] {
			t.Fatalf("%s: checksum after reopen %08x (%v), want %08x", path, sum, err, sums[path])
		}
	}
}
