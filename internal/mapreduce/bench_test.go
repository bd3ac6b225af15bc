package mapreduce

import (
	"strings"
	"testing"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
)

// BenchmarkSubmitWordCount measures whole-job throughput on the baseline
// engine (no emulated scheduling overheads).
func BenchmarkSubmitWordCount(b *testing.B) {
	spec := cluster.Uniform(4)
	lines := make([]string, 2000)
	for i := range lines {
		lines[i] = strings.Repeat("alpha beta gamma delta ", 4)
	}
	recs := make([]kv.Pair, len(lines))
	for i, l := range lines {
		recs[i] = kv.Pair{Key: int64(i), Value: l}
	}
	words := int64(len(lines) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := metrics.NewSet()
		fs := dfs.New(dfs.Config{BlockSize: 1 << 16, Replication: 2}, spec.IDs(), m)
		if err := fs.WriteFile("/in", "worker-0", recs, kv.OpsFor[int64, string](nil)); err != nil {
			b.Fatal(err)
		}
		e, err := NewEngine(fs, spec, m, Options{LocalityAware: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := e.Submit(wordCountJob("/in", "/out", true)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(words*int64(b.N))/b.Elapsed().Seconds(), "words/s")
}

// BenchmarkGroupAndReduce isolates the reduce-side group+apply path on
// a reduce scratch that each iteration returns for the next.
func BenchmarkGroupAndReduce(b *testing.B) {
	ops := kv.OpsFor[int64, float64](nil)
	pairs := make([]kv.Pair, 50000)
	for i := range pairs {
		pairs[i] = kv.Pair{Key: int64(i % 5000), Value: float64(i)}
	}
	red := func(key any, values []any, emit kv.Emit) error {
		var sum float64
		for _, v := range values {
			sum += v.(float64)
		}
		emit(key, sum)
		return nil
	}
	sc := new(scratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := sc.takeReduce()
		if _, err := runReduceFunc(red, pairs, ops, rs); err != nil {
			b.Fatal(err)
		}
		sc.putReduce(rs)
	}
}
