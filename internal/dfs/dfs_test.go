package dfs

import (
	"testing"

	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
)

func testOps() kv.Ops { return kv.OpsFor[int64, float64](nil) }

func nodes(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = string(rune('a' + i))
	}
	return ids
}

func recs(n int) []kv.Pair {
	out := make([]kv.Pair, n)
	for i := range out {
		out[i] = kv.Pair{Key: int64(i), Value: float64(i)}
	}
	return out
}

func TestWriteReadRoundtrip(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20, Replication: 2}, nodes(3), nil)
	in := recs(100)
	if err := fs.WriteFile("/data", "a", in, testOps()); err != nil {
		t.Fatal(err)
	}
	out, err := fs.ReadFile("/data", "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("record %d mismatch: %v vs %v", i, out[i], in[i])
		}
	}
}

func TestBlockSplitting(t *testing.T) {
	// 16 bytes per record, 64-byte blocks: 100 records -> 25 blocks.
	fs := New(Config{BlockSize: 64, Replication: 1}, nodes(2), nil)
	if err := fs.WriteFile("/big", "a", recs(100), testOps()); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits("/big")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 25 {
		t.Fatalf("got %d splits, want 25", len(splits))
	}
	total := 0
	for _, s := range splits {
		if s.Bytes > 64 {
			t.Fatalf("split %d overflows block size: %d", s.Block, s.Bytes)
		}
		total += s.Records
	}
	if total != 100 {
		t.Fatalf("records across splits = %d, want 100", total)
	}
}

func TestOversizedRecordGetsOwnBlock(t *testing.T) {
	fs := New(Config{BlockSize: 10, Replication: 1}, nodes(1), nil)
	// Both records are bigger than a block.
	if err := fs.WriteFileSized("/x", "a", recs(2), []int{100, 100}); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.StatFile("/x")
	if st.Blocks != 2 || st.Records != 2 {
		t.Fatalf("stat = %+v, want 2 blocks 2 records", st)
	}
}

func TestEmptyFile(t *testing.T) {
	fs := New(Config{}, nodes(1), nil)
	if err := fs.WriteFile("/empty", "a", nil, testOps()); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/empty") {
		t.Fatal("empty file not committed")
	}
	out, err := fs.ReadFile("/empty", "a")
	if err != nil || len(out) != 0 {
		t.Fatalf("read empty: %v %v", out, err)
	}
}

func TestReplicationPlacement(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20, Replication: 3}, nodes(5), nil)
	if err := fs.WriteFile("/r", "c", recs(10), testOps()); err != nil {
		t.Fatal(err)
	}
	splits, _ := fs.Splits("/r")
	if len(splits[0].Locations) != 3 {
		t.Fatalf("got %d replicas, want 3", len(splits[0].Locations))
	}
	if splits[0].Locations[0] != "c" {
		t.Fatalf("first replica not at writer: %v", splits[0].Locations)
	}
	seen := map[string]bool{}
	for _, l := range splits[0].Locations {
		if seen[l] {
			t.Fatalf("duplicate replica %s", l)
		}
		seen[l] = true
	}
}

func TestReplicationCappedAtLiveNodes(t *testing.T) {
	fs := New(Config{Replication: 5}, nodes(2), nil)
	if err := fs.WriteFile("/r", "a", recs(3), testOps()); err != nil {
		t.Fatal(err)
	}
	splits, _ := fs.Splits("/r")
	if len(splits[0].Locations) != 2 {
		t.Fatalf("got %d replicas, want 2 (live node cap)", len(splits[0].Locations))
	}
}

func TestLocalityAccounting(t *testing.T) {
	m := metrics.NewSet()
	fs := New(Config{BlockSize: 1 << 20, Replication: 1}, nodes(3), m)
	if err := fs.WriteFile("/loc", "a", recs(10), testOps()); err != nil {
		t.Fatal(err)
	}
	splits, _ := fs.Splits("/loc")
	if _, err := fs.ReadSplit(splits[0], "a"); err != nil { // local
		t.Fatal(err)
	}
	if m.Get(metrics.DFSReadRemote) != 0 {
		t.Fatal("local read counted as remote")
	}
	if _, err := fs.ReadSplit(splits[0], "b"); err != nil { // remote
		t.Fatal(err)
	}
	if m.Get(metrics.DFSReadRemote) == 0 {
		t.Fatal("remote read not counted")
	}
	if m.Get(metrics.DFSReadBytes) <= m.Get(metrics.DFSReadRemote) {
		t.Fatal("total reads should exceed remote reads")
	}
}

func TestWriteBytesCountReplication(t *testing.T) {
	m := metrics.NewSet()
	fs := New(Config{BlockSize: 1 << 20, Replication: 2}, nodes(3), m)
	if err := fs.WriteFile("/w", "a", recs(10), testOps()); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.StatFile("/w")
	if got := m.Get(metrics.DFSWriteBytes); got != 2*st.Bytes {
		t.Fatalf("write bytes %d, want %d (2x replication)", got, 2*st.Bytes)
	}
}

func TestNodeFailureFallsBackToReplica(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20, Replication: 2}, nodes(3), nil)
	if err := fs.WriteFile("/f", "a", recs(10), testOps()); err != nil {
		t.Fatal(err)
	}
	fs.FailNode("a")
	out, err := fs.ReadFile("/f", "b")
	if err != nil {
		t.Fatalf("read should survive one failure: %v", err)
	}
	if len(out) != 10 {
		t.Fatalf("got %d records", len(out))
	}
}

func TestAllReplicasDown(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20, Replication: 1}, nodes(2), nil)
	if err := fs.WriteFile("/g", "a", recs(5), testOps()); err != nil {
		t.Fatal(err)
	}
	// With a single replica there is no live source to re-replicate
	// from, so the block stays pinned to its dead holder until that
	// node returns.
	fs.FailNode("a")
	fs.FailNode("b")
	if _, err := fs.ReadFile("/g", "a"); err == nil {
		t.Fatal("expected error with all replicas down")
	}
	fs.RestoreNode("a")
	if _, err := fs.ReadFile("/g", "a"); err != nil {
		t.Fatalf("restoring the holder did not bring data back: %v", err)
	}
}

func TestReReplicationAfterFailure(t *testing.T) {
	m := metrics.NewSet()
	fs := New(Config{BlockSize: 1 << 20, Replication: 2}, nodes(4), m)
	if err := fs.WriteFile("/rr", "a", recs(10), testOps()); err != nil {
		t.Fatal(err)
	}
	before := m.Get(metrics.DFSWriteBytes)
	fs.FailNode("a")
	// The block must regain two live replicas, neither on "a".
	splits, err := fs.Splits("/rr")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits[0].Locations) != 2 {
		t.Fatalf("re-replication left %d live replicas, want 2", len(splits[0].Locations))
	}
	for _, loc := range splits[0].Locations {
		if loc == "a" {
			t.Fatal("dead node still listed as replica holder")
		}
	}
	if m.Get(metrics.DFSWriteBytes) <= before {
		t.Fatal("re-replication traffic not accounted")
	}
	// Reads keep working from any node.
	if _, err := fs.ReadFile("/rr", "c"); err != nil {
		t.Fatal(err)
	}
}

func TestFailedNodeReceivesNoNewReplicas(t *testing.T) {
	fs := New(Config{Replication: 3}, nodes(3), nil)
	fs.FailNode("b")
	if err := fs.WriteFile("/h", "a", recs(5), testOps()); err != nil {
		t.Fatal(err)
	}
	splits, _ := fs.Splits("/h")
	for _, loc := range splits[0].Locations {
		if loc == "b" {
			t.Fatal("dead node got a replica")
		}
	}
}

func TestDeleteListExists(t *testing.T) {
	fs := New(Config{}, nodes(1), nil)
	_ = fs.WriteFile("/dir/a", "a", recs(1), testOps())
	_ = fs.WriteFile("/dir/b", "a", recs(1), testOps())
	_ = fs.WriteFile("/other", "a", recs(1), testOps())
	got := fs.List("/dir/")
	if len(got) != 2 || got[0] != "/dir/a" || got[1] != "/dir/b" {
		t.Fatalf("List = %v", got)
	}
	fs.Delete("/dir/a")
	if fs.Exists("/dir/a") {
		t.Fatal("delete did not remove file")
	}
	fs.Delete("/dir/a") // idempotent
}

func TestOverwrite(t *testing.T) {
	fs := New(Config{}, nodes(1), nil)
	_ = fs.WriteFile("/o", "a", recs(5), testOps())
	_ = fs.WriteFile("/o", "a", recs(2), testOps())
	out, err := fs.ReadFile("/o", "a")
	if err != nil || len(out) != 2 {
		t.Fatalf("overwrite failed: %d records, err %v", len(out), err)
	}
}

func TestReadMissing(t *testing.T) {
	fs := New(Config{}, nodes(1), nil)
	if _, err := fs.ReadFile("/nope", "a"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := fs.Splits("/nope"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := fs.StatFile("/nope"); err == nil {
		t.Fatal("expected error")
	}
}
