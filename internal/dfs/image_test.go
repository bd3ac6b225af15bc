package dfs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// spillToken stands for the fuzz run's spill directory in FuzzImage's
// inputs: a seed names an existing spill file as "$SPILL/blk-00000001".
const spillToken = "$SPILL"

// FuzzImage writes arbitrary bytes as a namenode image and opens it. Open
// must not panic, and must either fail or return a namenode whose List
// and StatFile report exactly the image's files, byte and record counts,
// and which takes a new file afterwards. Its seed corpus is in
// testdata/fuzz/FuzzImage.
func FuzzImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "blk-00000001"), []byte{blockWire}, 0o644); err != nil {
			t.Fatal(err)
		}
		data = bytes.ReplaceAll(data, []byte(spillToken), []byte(dir))
		cfg := Config{BlockSize: 256, Replication: 2, SpillDir: dir, ImagePath: filepath.Join(dir, "namenode.json")}
		if err := os.WriteFile(cfg.ImagePath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := Open(cfg, nodes(3), nil)
		if err != nil {
			return
		}
		var img image
		if err := json.Unmarshal(data, &img); err != nil {
			t.Fatalf("Open accepted an image that does not decode: %v", err)
		}
		want := map[string]Stat{}
		for _, imf := range img.Files {
			st := Stat{Bytes: imf.Bytes, Blocks: len(imf.Blocks)}
			for _, b := range imf.Blocks {
				st.Records += b.Count
			}
			want[imf.Path] = st
		}
		got := fs.List("")
		if len(got) != len(want) || len(got) != len(img.Files) {
			t.Fatalf("List = %q, image has %d files (%d distinct paths)", got, len(img.Files), len(want))
		}
		for _, p := range got {
			st, err := fs.StatFile(p)
			if w, ok := want[p]; err != nil || !ok || st != w {
				t.Fatalf("StatFile(%q) = %+v, %v; image says %+v (listed: %v)", p, st, err, w, ok)
			}
			if st.Bytes < 0 || st.Records < 0 {
				t.Fatalf("StatFile(%q) = %+v: negative counts", p, st)
			}
		}
		if err := fs.WriteFile("/fuzz/new", "", recs(3), testOps()); err != nil {
			t.Fatalf("write after Open: %v", err)
		}
	})
}
