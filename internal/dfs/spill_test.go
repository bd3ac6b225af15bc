package dfs

import (
	"errors"
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

// opaque has no wire codec: a block holding one cannot be encoded.
type opaque struct{ A, B int }

// TestSpillReopenAndRefusedWrite writes a file of records that all have
// a wire codec, reopens the DFS from its image as a restarted master
// does, and reads it back: each block starts with the wire encoding's
// byte, the records survive, and the checksum a manifest would have
// recorded before the restart still verifies. A write holding a value
// with no codec fails with an error naming the type and leaves no file.
func TestSpillReopenAndRefusedWrite(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{BlockSize: 256, Replication: 2, SpillDir: dir, ImagePath: filepath.Join(dir, "image.json")}
	want := recs(40)
	fs1, err := Open(cfg, nodes(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs1.WriteFile("/wire", "a", want, testOps()); err != nil {
		t.Fatal(err)
	}
	sum, err := fs1.Checksum("/wire")
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := fs1.ns.get("/wire")
	for _, b := range stored.blocks {
		data, err := os.ReadFile(b.diskPath)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != blockWire {
			t.Fatalf("block encoding %d, want %d", data[0], blockWire)
		}
	}
	refused := []kv.Pair{{Key: int64(1), Value: 2.5}, {Key: int64(2), Value: opaque{1, 2}}}
	err = fs1.WriteFile("/opaque", "a", refused, testOps())
	if !errors.Is(err, kv.ErrNoCodec) || !strings.Contains(err.Error(), "dfs.opaque") {
		t.Fatalf("write of a value with no codec: err %v, want ErrNoCodec naming dfs.opaque", err)
	}
	if fs1.Exists("/opaque") {
		t.Fatal("refused write left a file behind")
	}

	fs2, err := Open(cfg, nodes(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fs2.ReadFile("/wire", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(want) {
		t.Fatalf("%d records back, want %d", len(out), len(want))
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("record %d changed: %v vs %v", i, out[i], want[i])
		}
	}
	if got, err := fs2.Checksum("/wire"); err != nil || got != sum {
		t.Fatalf("checksum after reopen %08x (%v), want %08x", got, err, sum)
	}
}
