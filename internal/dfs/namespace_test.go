package dfs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"imapreduce/internal/kv"
)

// refTable is the oracle the namespace is checked against: the file
// table as a flat map from path to the write that made the file, with
// List a scan of every path and a sort.
type refTable map[string]int

func (r refTable) list(prefix string) []string {
	var out []string
	for p := range r {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// rename is the map's Rename: store under the new path, then drop the
// old one — so a rename onto itself removes the file.
func (r refTable) rename(oldPath, newPath string) bool {
	v, ok := r[oldPath]
	if !ok {
		return false
	}
	r[newPath] = v
	delete(r, oldPath)
	return true
}

// bytesUnder is the reference's DirBytes: the bytes of every file List
// returns for dir + "/".
func (r refTable) bytesUnder(dir string) int64 {
	var n int64
	for _, p := range r.list(dir + "/") {
		n += int64(r[p])
	}
	return n
}

// subtreeBytes checks d's byte count, and every directory's beneath it,
// against the sum of the file bytes the subtree holds, and returns it.
func subtreeBytes(t testing.TB, step, path string, d *dirNode) int64 {
	t.Helper()
	var n int64
	for _, f := range d.files {
		n += f.bytes
	}
	for name, sub := range d.dirs {
		n += subtreeBytes(t, step, path+"/"+name, sub)
	}
	if d.bytes != n {
		t.Fatalf("after %s: directory %q counts %d bytes, its files hold %d", step, path, d.bytes, n)
	}
	return n
}

const (
	nsWrite byte = iota
	nsRename
	nsDelete
	nsList
	nsKinds
)

type nsOp struct {
	kind byte
	a, b string // b: the rename target
}

func (op nsOp) String() string {
	return fmt.Sprintf("%s(%q, %q)", [nsKinds]string{"write", "rename", "delete", "list"}[op.kind], op.a, op.b)
}

// checkOps applies ops to a DFS and to the reference and fails on the
// first difference: a Rename that succeeds on one side only, a List that
// differs, or a listed file that is not the one the reference says —
// each write's single record is sized by its op index, so StatFile's
// Bytes tell writes apart. After every operation each directory's byte
// count must equal the bytes of the files beneath it, and a listed
// prefix's DirBytes the reference's sum. Last, every file is deleted and
// the tree must hold no node.
func checkOps(t testing.TB, ops []nsOp) {
	t.Helper()
	fs := New(Config{Replication: 1}, []string{"n"}, nil)
	ref := refTable{}
	rec := []kv.Pair{{Key: int64(0), Value: float64(0)}}
	check := func(step string, prefix string) {
		t.Helper()
		got, want := fs.List(prefix), ref.list(prefix)
		if !slices.Equal(got, want) {
			t.Fatalf("after %s: List(%q) = %q, want %q", step, prefix, got, want)
		}
		for _, p := range got {
			if st, err := fs.StatFile(p); err != nil || st.Bytes != int64(ref[p]) {
				t.Fatalf("after %s: %q holds %d bytes (err %v), want the write of %d", step, p, st.Bytes, err, ref[p])
			}
		}
		if got, want := fs.DirBytes(prefix), ref.bytesUnder(prefix); got != want {
			t.Fatalf("after %s: DirBytes(%q) = %d, want %d", step, prefix, got, want)
		}
	}
	for i, op := range ops {
		switch op.kind {
		case nsWrite:
			if err := fs.WriteFileSized(op.a, "n", rec, []int{i + 1}); err != nil {
				t.Fatalf("op %d %v: %v", i, op, err)
			}
			ref[op.a] = i + 1
		case nsRename:
			err := fs.Rename(op.a, op.b)
			if ok := ref.rename(op.a, op.b); ok != (err == nil) {
				t.Fatalf("op %d %v: error %v, reference renamed %v", i, op, err, ok)
			}
		case nsDelete:
			fs.Delete(op.a)
			delete(ref, op.a)
		case nsList:
			check(fmt.Sprintf("op %d %v", i, op), op.a)
		}
		subtreeBytes(t, fmt.Sprintf("op %d %v", i, op), "", &fs.ns.root)
	}
	check("all ops", "")
	for p := range ref {
		if !fs.Exists(p) {
			t.Fatalf("%q is in the reference but not the DFS", p)
		}
		fs.Delete(p)
	}
	if n := len(fs.ns.root.dirs) + len(fs.ns.root.files); n != 0 || fs.ns.root.bytes != 0 {
		t.Fatalf("every file deleted, yet the root keeps %d entries and counts %d bytes", n, fs.ns.root.bytes)
	}
}

// TestNamespaceMatchesMap runs a scripted sequence over the namespace's
// corner cases, then seeded random ones, against the flat-map reference.
func TestNamespaceMatchesMap(t *testing.T) {
	w := func(p string) nsOp { return nsOp{kind: nsWrite, a: p} }
	l := func(p string) nsOp { return nsOp{kind: nsList, a: p} }
	script := []nsOp{
		w("/_imr/j/ckpt-000001/part-0"), w("/_imr/j/ckpt-000012/part-0"), w("/_imr/j/manifest-000001"),
		w("/_imr/j/static-0/part-0"), w("/_imr/jj/ckpt-000001/part-0"),
		w("/a"), w("/a/b"), w("/ab/x"), w("/a-b"), w("a//b"), w("a/"), w("a"), w(""), w("/"),
		l(""), l("/"), l("/_imr/j/ckpt-"), l("/_imr/j/ckpt-000001/part-0"), l("/_imr/j"), l("/_imr/j/"),
		l("/a"), l("/a/"), l("/ab"), l("/a/b/"), l("a"), l("a/"), l("a//"), l("a//b"), l("/missing/dir/x"),
		{kind: nsRename, a: "/a", b: "/ab/x"}, l("/a"),
		{kind: nsRename, a: "/a/b", b: "/a/b"}, l("/a"),
		{kind: nsRename, a: "/nope", b: "/a"}, l(""),
		{kind: nsRename, a: "/_imr/j/ckpt-000012/part-0", b: "/_imr/k/ckpt-000012/part-0"}, l("/_imr/"),
		{kind: nsDelete, a: "/missing"}, {kind: nsDelete, a: "/_imr/j/ckpt-000001/part-0/deeper"},
		{kind: nsDelete, a: "/_imr/j/ckpt-000001/part-0"}, l("/_imr/j/ckpt-"),
		w("/ab/x"), l("/ab/"),
	}
	checkOps(t, script)

	comps := []string{"", "a", "ab", "b", "_imr", "j", "ckpt-1", "ckpt-12", "part-0"}
	randPath := func(rng *rand.Rand) string {
		parts := make([]string, 1+rng.Intn(4))
		for i := range parts {
			parts[i] = comps[rng.Intn(len(comps))]
		}
		return strings.Join(parts, "/")
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ops []nsOp
		var written []string
		pick := func() string {
			if len(written) > 0 && rng.Intn(3) > 0 {
				return written[rng.Intn(len(written))]
			}
			return randPath(rng)
		}
		for i := 0; i < 60; i++ {
			op := nsOp{kind: byte(rng.Intn(int(nsKinds))), a: pick()}
			switch op.kind {
			case nsWrite:
				written = append(written, op.a)
			case nsRename:
				op.b = pick()
			case nsList:
				op.a = op.a[:rng.Intn(len(op.a)+1)] // cut anywhere: partial components
			}
			ops = append(ops, op)
		}
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { checkOps(t, ops) })
	}
}

// decodeOps reads up to maxFuzzOps operations from fuzzer bytes: a kind
// byte, then each path as a length byte (mod 8) and that many characters
// from "/ab-".
func decodeOps(data []byte) []nsOp {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	path := func() string {
		var p []byte
		for n := next() % 8; n > 0 && len(data) > 0; n-- {
			p = append(p, "/ab-"[next()%4])
		}
		return string(p)
	}
	var ops []nsOp
	for len(data) > 0 && len(ops) < maxFuzzOps {
		op := nsOp{kind: next() % nsKinds, a: path()}
		if op.kind == nsRename {
			op.b = path()
		}
		ops = append(ops, op)
	}
	return ops
}

// maxFuzzOps bounds a fuzz input's operations: checkOps costs about the
// square of their number, and the fuzzer minimizes every new input by
// running it again and again — unbounded inputs stall it for seconds.
const maxFuzzOps = 64

// FuzzNamespaceOps checks fuzzer-made operation sequences against the
// flat-map reference (checkOps). Its seed corpus is in
// testdata/fuzz/FuzzNamespaceOps.
func FuzzNamespaceOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOps(t, decodeOps(data))
	})
}

// TestNamespaceImageMatchesMap checks the persisted image of a fixed
// file set, corner-case names included: its bytes are the image the flat
// map wrote — files in sorted path order — and a namenode Opened from it
// lists the same paths and writes the same bytes back.
func TestNamespaceImageMatchesMap(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Replication: 2, SpillDir: dir, ImagePath: filepath.Join(dir, "namenode.json")}
	fs := New(cfg, nodes(3), nil)
	ref := refTable{}
	for i, p := range []string{"/_imr/j/ckpt-000001/part-0", "/_imr/j/manifest-000001", "/a", "/a/b",
		"/ab/x", "/a-b", "a//b", "a/", "a", "", "/", "/z"} {
		if err := fs.WriteFile(p, "a", recs(i+1), testOps()); err != nil {
			t.Fatal(err)
		}
		ref[p] = i + 1
	}
	fs.Delete("/z")
	delete(ref, "/z")
	if err := fs.Rename("/a-b", "/a-c"); err != nil {
		t.Fatal(err)
	}
	ref.rename("/a-b", "/a-c")

	img := image{Seq: fs.seq, NextPos: fs.nextPos}
	for _, p := range ref.list("") {
		f, _ := fs.ns.get(p)
		imf := imageFile{Path: p, Bytes: f.bytes}
		for _, b := range f.blocks {
			imf.Blocks = append(imf.Blocks, imageBlock{DiskPath: b.diskPath, Checksum: b.checksum, Count: b.count, Bytes: b.bytes, Replicas: b.replicas})
		}
		img.Files = append(img.Files, imf)
	}
	want, err := json.MarshalIndent(img, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(cfg.ImagePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, want) {
		t.Fatalf("image differs from the flat map's:\n%s\nwant\n%s", saved, want)
	}

	fs2, err := Open(cfg, nodes(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fs2.List(""); !slices.Equal(got, ref.list("")) {
		t.Fatalf("reopened List(\"\") = %q, want %q", got, ref.list(""))
	}
	fs2.mu.Lock()
	err = fs2.saveImageLocked()
	fs2.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if resaved, err := os.ReadFile(cfg.ImagePath); err != nil || !bytes.Equal(resaved, saved) {
		t.Fatalf("reopened namenode rewrites a different image (err %v)", err)
	}
}

// probeJob is a job-shaped directory as serve leaves one: 4 static
// parts, 4 checkpoint-0 parts and a manifest.
const probeJob = "/_imr/tenants/t000/probe-pagerank"

// namenodeAmong returns a DFS holding probeJob's 9 files beside
// unrelated files laid out like serve's tenant directories: 1 000 job
// directories a tenant, one part file each. The unrelated entries share
// one file record — nothing but their paths is ever read.
func namenodeAmong(tb testing.TB, unrelated int) *DFS {
	fs := New(Config{Replication: 1}, []string{"n"}, nil)
	for i := 0; i < 4; i++ {
		for _, kind := range []string{"static-0", "ckpt-000000"} {
			if err := fs.WriteFile(fmt.Sprintf("%s/%s/part-%d", probeJob, kind, i), "n", recs(1), testOps()); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := fs.WriteFile(probeJob+"/manifest-000000", "n", recs(1), testOps()); err != nil {
		tb.Fatal(err)
	}
	shared := &file{}
	for i := 0; i < unrelated; i++ {
		fs.ns.put(fmt.Sprintf("/_imr/tenants/t%03d/%04d-pagerank/part-0", i/1000, i%1000), shared)
	}
	return fs
}

// probeOps is what a fresh run does to its own directory: list it, then
// write a file beside it and delete it again.
func probeOps(tb testing.TB, fs *DFS, rec []kv.Pair) {
	if n := len(fs.List(probeJob + "/")); n != 9 {
		tb.Fatalf("listed %d files of the probe job, want 9", n)
	}
	if err := fs.WriteFile(probeJob+"/ckpt-000001/part-0", "n", rec, testOps()); err != nil {
		tb.Fatal(err)
	}
	fs.Delete(probeJob + "/ckpt-000001/part-0")
}

// TestNamespaceCostIndependentOfUnrelatedFiles gates the namespace's
// claim: listing one job's directory and writing and deleting a file
// beside it cost the same among 100 000 unrelated files as among 1 000.
// It takes the fewest nanoseconds an operation of five interleaved
// rounds, each started right after a collection, so that one marking a
// heap of 100 000 paths is not charged to the namespace; a flat map's
// scan makes the ratio about 100.
func TestNamespaceCostIndependentOfUnrelatedFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100 000-file namespace")
	}
	sizes := []int{1000, 100000}
	var namenodes []*DFS
	for _, n := range sizes {
		namenodes = append(namenodes, namenodeAmong(t, n))
	}
	rec := recs(1)
	const ops = 1000
	best := []time.Duration{time.Hour, time.Hour}
	for round := 0; round < 5; round++ {
		for i, fs := range namenodes {
			runtime.GC()
			start := time.Now()
			for j := 0; j < ops; j++ {
				probeOps(t, fs, rec)
			}
			best[i] = min(best[i], time.Since(start)/ops)
		}
	}
	ratio := float64(best[1]) / float64(best[0])
	t.Logf("list + write + delete: %v among %d files, %v among %d (%.2f×)", best[0], sizes[0], best[1], sizes[1], ratio)
	if ratio >= 3 {
		t.Errorf("an operation costs %.2f× as much among %d unrelated files as among %d, want under 3×", ratio, sizes[1], sizes[0])
	}
}

// BenchmarkDFSList lists one job's 9 files among unrelated ones.
func BenchmarkDFSList(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprint("unrelated=", n), func(b *testing.B) {
			fs := namenodeAmong(b, n)
			b.ReportAllocs()
			for b.Loop() {
				if len(fs.List(probeJob+"/")) != 9 {
					b.Fatal("probe job not listed")
				}
			}
		})
	}
}
