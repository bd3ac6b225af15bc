package dfs

import (
	"testing"
	"time"

	"imapreduce/internal/kv"
	"imapreduce/internal/transport"
)

func testPairs(n int) []kv.Pair {
	out := make([]kv.Pair, n)
	for i := range out {
		out[i] = kv.Pair{Key: int64(i), Value: float64(i) * 1.5}
	}
	return out
}

// TestRemoteFSRoundTrip drives every FS operation through the RPC
// client against a served DFS and checks the results match direct
// access.
func TestRemoteFSRoundTrip(t *testing.T) {
	fs := New(Config{BlockSize: 256, Replication: 2}, []string{"w0", "w1", "w2"}, nil)
	nw := transport.NewChanNetwork()
	defer nw.Close()
	sep, err := nw.Endpoint("dfs/nn")
	if err != nil {
		t.Fatal(err)
	}
	svc := Serve(fs, sep)
	cep, err := nw.Endpoint("dfs/c/w0")
	if err != nil {
		t.Fatal(err)
	}
	var cfs FS = NewClient(cep, "dfs/nn")

	recs := testPairs(40)
	if err := cfs.WriteFile("/t/data", "w1", recs, testOps()); err != nil {
		t.Fatalf("remote WriteFile: %v", err)
	}
	if !cfs.Exists("/t/data") {
		t.Fatal("remote Exists = false after write")
	}
	st, err := cfs.StatFile("/t/data")
	if err != nil || st.Records != 40 {
		t.Fatalf("remote StatFile = %+v, %v", st, err)
	}
	splits, err := cfs.Splits("/t/data")
	if err != nil || len(splits) < 2 {
		t.Fatalf("remote Splits = %d blocks, %v (want multiple)", len(splits), err)
	}
	got, err := cfs.ReadSplit(splits[0], "w0")
	if err != nil || len(got) == 0 {
		t.Fatalf("remote ReadSplit: %d recs, %v", len(got), err)
	}
	all, err := cfs.ReadFile("/t/data", "w0")
	if err != nil || len(all) != 40 {
		t.Fatalf("remote ReadFile: %d recs, %v", len(all), err)
	}
	for i, p := range all {
		if p.Key.(int64) != int64(i) || p.Value.(float64) != float64(i)*1.5 {
			t.Fatalf("rec %d corrupted in transit: %+v", i, p)
		}
	}
	sumRemote, err := cfs.Checksum("/t/data")
	if err != nil {
		t.Fatal(err)
	}
	sumLocal, err := fs.Checksum("/t/data")
	if err != nil || sumRemote != sumLocal {
		t.Fatalf("checksum remote %08x != local %08x (%v)", sumRemote, sumLocal, err)
	}
	if err := cfs.Rename("/t/data", "/t/final"); err != nil {
		t.Fatalf("remote Rename: %v", err)
	}
	if paths := cfs.List("/t/"); len(paths) != 1 || paths[0] != "/t/final" {
		t.Fatalf("remote List = %v", paths)
	}
	cfs.FailNode("w1")
	if sp, err := cfs.Splits("/t/final"); err != nil {
		t.Fatal(err)
	} else {
		for _, s := range sp {
			for _, loc := range s.Locations {
				if loc == "w1" {
					t.Fatal("failed node still serving replicas")
				}
			}
		}
	}
	cfs.RestoreNode("w1")
	cfs.Delete("/t/final")
	if cfs.Exists("/t/final") {
		t.Fatal("remote Delete did not remove file")
	}

	sep.Close()
	svc.Wait()
	cep.Close()
	if _, err := cfs.(*Client).StatFile("/gone"); err == nil {
		t.Fatal("call after close succeeded")
	}
}

// TestServiceDedupReplays proves a duplicated non-idempotent request
// (at-least-once delivery) executes once and replays its response.
func TestServiceDedupReplays(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20, Replication: 1}, []string{"w0"}, nil)
	if err := fs.WriteFile("/a", "w0", testPairs(3), testOps()); err != nil {
		t.Fatal(err)
	}
	nw := transport.NewChanNetwork()
	defer nw.Close()
	sep, _ := nw.Endpoint("dfs/nn")
	Serve(fs, sep)
	cep, _ := nw.Endpoint("c")

	// Hand-roll the duplicate: the same rename request frame twice.
	req := rpcReq{ID: 7, Op: opRename, Path: "/a", Path2: "/b"}
	msg := transport.Message{Kind: KindDFSReq, Payload: req, Size: 32}
	if err := cep.Send("dfs/nn", msg); err != nil {
		t.Fatal(err)
	}
	if err := cep.Send("dfs/nn", msg); err != nil {
		t.Fatal(err)
	}
	var resps []rpcResp
	timeout := time.After(2 * time.Second)
	for len(resps) < 2 {
		select {
		case m := <-cep.Recv():
			if r, ok := m.Payload.(rpcResp); ok {
				resps = append(resps, r)
			}
		case <-timeout:
			t.Fatalf("got %d responses, want 2", len(resps))
		}
	}
	for i, r := range resps {
		if r.Err != "" {
			t.Fatalf("response %d errored on duplicate rename: %s", i, r.Err)
		}
	}
	if !fs.Exists("/b") || fs.Exists("/a") {
		t.Fatal("rename not applied exactly once")
	}
}

// TestImageRecovery writes through one DFS, "kills" it, and opens a
// fresh one over the same data directory: the files, contents and
// checksums must all survive, and the spill sequence must not collide.
func TestImageRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg, err := ImageInDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BlockSize = 256
	nodes := []string{"w0", "w1"}

	fs1, err := Open(cfg, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := testPairs(50)
	if err := fs1.WriteFile("/job/state", "w0", recs, testOps()); err != nil {
		t.Fatal(err)
	}
	if err := fs1.WriteFile("/job/tmp", "w1", testPairs(5), testOps()); err != nil {
		t.Fatal(err)
	}
	if err := fs1.Rename("/job/tmp", "/job/committed"); err != nil {
		t.Fatal(err)
	}
	sum1, err := fs1.Checksum("/job/state")
	if err != nil {
		t.Fatal(err)
	}
	// No Close: the process is presumed kill -9'd here.

	fs2, err := Open(cfg, nodes, nil)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	if got := fs2.List("/job/"); len(got) != 2 || got[0] != "/job/committed" || got[1] != "/job/state" {
		t.Fatalf("recovered files = %v", got)
	}
	back, err := fs2.ReadFile("/job/state", "w0")
	if err != nil || len(back) != 50 {
		t.Fatalf("recovered read: %d recs, %v", len(back), err)
	}
	for i, p := range back {
		if p.Key.(int64) != int64(i) {
			t.Fatalf("recovered record %d wrong: %+v", i, p)
		}
	}
	sum2, err := fs2.Checksum("/job/state")
	if err != nil || sum2 != sum1 {
		t.Fatalf("checksum changed across recovery: %08x -> %08x (%v)", sum1, sum2, err)
	}
	// New writes must not clobber recovered spill files.
	if err := fs2.WriteFile("/job/next", "w0", testPairs(8), testOps()); err != nil {
		t.Fatal(err)
	}
	if again, err := fs2.ReadFile("/job/state", "w0"); err != nil || len(again) != 50 {
		t.Fatalf("old file damaged by new writes: %d recs, %v", len(again), err)
	}
}
