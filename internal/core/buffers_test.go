package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"imapreduce/internal/cluster"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
	"imapreduce/internal/transport"
)

// TestStaleDuplicateReturnsNoBuffer walks one chunk buffer round the trip
// by hand: the reduce's handler sends it home, the map refills it, and
// only then does the network's duplicate of the first chunk arrive. The
// duplicate is dropped as a duplicate, and its release neither returns
// the buffer a second time nor clears the records it now carries.
func TestStaleDuplicateReturnsNoBuffer(t *testing.T) {
	home := newFreeList(1, 2, boxedDef{}.newCols)
	send := func(seq, key int64) shuffleChunk {
		b := home.get()
		b.records.(*kv.Cols[any]).Append(key, float64(key))
		return shuffleChunk{Gen: 1, Iter: 1, FromMap: 0, Seq: seq, Cols: b.records, lease: leaseOf(b)}
	}
	rt := &reduceTask{e: &Engine{}, job: &Job{Ops: f64Ops()}, gen: 1, iter: 1, numMaps: 2, pend: map[int]*accum{}}
	rt.loops = boxedDef{}.reduceLoops(rt)

	first := send(1, 10)
	dup := first // what a duplicating network delivers twice
	rt.handleShuffle(first)
	if len(home.free) != 1 {
		t.Fatalf("%d buffers home after the first chunk was handled, want 1", len(home.free))
	}
	second := send(2, 20)
	if second.lease.buf != first.lease.buf {
		t.Fatal("the refill did not take the buffer that came home")
	}
	rt.handleShuffle(dup)
	if len(home.free) != 0 {
		t.Fatal("the stale duplicate returned the buffer a second time")
	}
	if k := second.lease.buf.records.(*kv.Cols[any]).Keys[0]; k != 20 {
		t.Fatalf("the refilled buffer holds key %v after the stale release, want 20", k)
	}
	rt.handleShuffle(second)
	dup.release() // late repeats of a spent claim change nothing
	if len(home.free) != 1 {
		t.Fatalf("%d buffers home, want 1", len(home.free))
	}
	if _, err := rt.loops.group(rt.pend[1]); err != nil {
		t.Fatal(err)
	}
	if keys := rt.loops.(*colReduceLoops[any]).groups.Keys; !slices.Equal(keys, []int64{10, 20}) {
		t.Fatalf("the reduce took keys %v, want [10 20]", keys)
	}
}

// TestForgedStaleDuplicatesAfterRefill forges the late duplicate on a
// wrapper network: the first trip of each map's chunk buffers is held
// back and delivered again, to its original reduce, just as that buffer
// leaves on a later trip with other records. Those duplicates must be
// dropped without sending the buffer home a second time — a second
// return would hand one buffer to two chunks, or clear records still in
// flight — so the output equals the undisturbed run's.
func TestForgedStaleDuplicatesAfterRefill(t *testing.T) {
	guard(t, 2*time.Minute)
	const n, iters = 600, 6
	run := func(forge bool) (map[int64]any, int) {
		var mu sync.Mutex
		held := map[*chunkBuf]transport.Message{} // each buffer's first trip, by its reduce
		heldTo := map[*chunkBuf]string{}
		forged := 0
		net := &tapNet{Network: transport.NewChanNetwork()}
		net.tap = func(from transport.Endpoint, to string, msg transport.Message) error {
			c, ok := msg.Payload.(shuffleChunk)
			if !forge || !ok || c.lease.buf == nil {
				return nil
			}
			mu.Lock()
			first, ok := held[c.lease.buf]
			switch {
			case !ok:
				if len(held)+forged < 64 {
					held[c.lease.buf], heldTo[c.lease.buf] = msg, to
				}
				mu.Unlock()
				return nil
			case first.Payload.(shuffleChunk).lease.n == c.lease.n:
				mu.Unlock()
				return nil // a retry of the held trip, not a refill
			}
			firstTo := heldTo[c.lease.buf]
			delete(held, c.lease.buf)
			forged++
			mu.Unlock()
			_ = from.Send(firstTo, first) // a late duplicate: nobody waits for it
			return nil
		}
		defer net.Close()
		v := newEnvNet(t, cluster.Uniform(3), net, Options{})
		job, _ := ringSetup(t, v, n)
		job.MaxIter = iters
		job.BufferThreshold = 16
		res, err := v.e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return v.readOutput(t, res.OutputPath), forged
	}
	want, _ := run(false)
	got, forged := run(true)
	if forged == 0 {
		t.Fatal("no stale duplicate was forged")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("output after %d stale duplicates differs from the undisturbed run", forged)
	}
}

// TestSharedChunksCarryNoLease taps every data chunk of a OneToAll job (a
// miniature K-means, whose reduces broadcast) and of a job with an
// auxiliary phase (whose termination reduce sends each state twice): a
// chunk holding a buffer lease goes to exactly one receiver on every
// trip, and no state chunk of either job holds one. The shuffle chunks
// do, so recycling is on.
func TestSharedChunksCarryNoLease(t *testing.T) {
	for _, name := range []string{"one-to-all", "auxiliary"} {
		t.Run(name, func(t *testing.T) {
			type trip struct {
				buf *chunkBuf
				n   uint64
			}
			var mu sync.Mutex
			dests := map[trip]map[string]bool{}
			leased := map[string]int{}
			net := &tapNet{Network: transport.NewChanNetwork()}
			net.tap = func(_ transport.Endpoint, to string, msg transport.Message) error {
				var l bufLease
				switch c := msg.Payload.(type) {
				case stateChunk:
					l = c.lease
				case shuffleChunk:
					l = c.lease
				}
				if l.buf == nil {
					return nil
				}
				mu.Lock()
				defer mu.Unlock()
				leased[msg.Kind]++
				k := trip{l.buf, l.n}
				if dests[k] == nil {
					dests[k] = map[string]bool{}
				}
				dests[k][to] = true
				return nil
			}
			defer net.Close()
			v := newEnvNet(t, cluster.Uniform(3), net, Options{})
			var job *Job
			if name == "one-to-all" {
				job = miniKMeans(t, v)
			} else {
				v.writeState(t, "/state", 60)
				job = watchedHalvingJob("halve-leases")
				job.BufferThreshold = 4
			}
			if _, err := v.e.Run(job); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			for k, to := range dests {
				if len(to) != 1 {
					t.Errorf("a buffer's trip %d went to %d receivers: %v", k.n, len(to), to)
				}
			}
			if leased[kindShuffle] == 0 {
				t.Fatal("no shuffle chunk held a lease: recycling never ran")
			}
			if leased[kindState] != 0 {
				t.Fatalf("%d state chunks that more than one task reads held a lease", leased[kindState])
			}
		})
	}
}

// TestTCPBuffersComeHomeAtSender: over TCP a receiver decodes a copy and
// holds no lease, so every reused buffer came home at its sender, right
// after Send. Over a 20-iteration run the free lists are hit, and no task
// ever allocates more buffers than it has destinations.
func TestTCPBuffersComeHomeAtSender(t *testing.T) {
	guard(t, time.Minute)
	net := transport.NewTCPNetwork()
	defer net.Close()
	const workers, n, iters = 3, 300, 20
	v := newEnvNet(t, cluster.Uniform(workers), net, Options{Timeout: 30 * time.Second})
	job, vals := ringSetup(t, v, n)
	job.MaxIter = iters
	job.BufferThreshold = 16
	res, err := v.e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	want := ringReference(vals, iters)
	out := v.readOutput(t, res.OutputPath)
	for i := 0; i < n; i++ {
		if math.Abs(out[int64(i)].(float64)-want[i]) > 1e-9 {
			t.Fatalf("key %d: got %v want %v", i, out[int64(i)], want[i])
		}
	}
	reused, allocated := v.m.Get(metrics.ChunkBufsReused), v.m.Get(metrics.ChunkBufsAlloc)
	t.Logf("free-list hit rate %.3f: %d reused, %d allocated", float64(reused)/float64(reused+allocated), reused, allocated)
	if reused == 0 {
		t.Fatal("no buffer came home at its sender")
	}
	// A map fills at most one buffer per reduce at a time and a reduce one,
	// and each comes straight back from Send.
	if most := int64(workers*workers + workers); allocated > most {
		t.Fatalf("%d buffers allocated, want at most %d", allocated, most)
	}
}

// TestSparesCoverOverlappingIterations: a task keeps up to two finished
// accumulators, emptied, with the records' capacity — one per iteration
// that can be in flight — so however a reduce's iterations overlap (the
// next iteration's first chunk before this one's last, or not), it makes
// no accumulator past the first two.
func TestSparesCoverOverlappingIterations(t *testing.T) {
	var spares, inFlight []*accum
	made := map[*accum]bool{}
	// t: an iteration's first chunk arrives; r: the oldest iteration in
	// flight finishes. Two overlapping iterations that both finish before
	// the next one starts leave two spares behind.
	for _, ev := range "ttrrttrrtrtrttrrtrttrr" {
		if ev == 'r' {
			inFlight[0].retire(&spares)
			inFlight = inFlight[1:]
			continue
		}
		a := takeAccum(&spares)
		if recLen(a.records) != 0 || a.ends != 0 || len(a.seen) != 0 || len(a.tally) != 0 {
			t.Fatal("a spare was not emptied")
		}
		if a.records == nil {
			a.records = kv.NewCols[float64](64)
		}
		a.records.(*kv.Cols[float64]).Append(1, 1)
		a.take(0, 1, 1)
		made[a] = true
		inFlight = append(inFlight, a)
	}
	if len(made) != 2 {
		t.Fatalf("%d accumulators made, want 2", len(made))
	}
	for _, a := range append(inFlight, &accum{}) {
		a.retire(&spares)
	}
	if len(spares) != maxSpares {
		t.Fatalf("%d spares kept, want %d", len(spares), maxSpares)
	}
}

// TestFirstBuffersStartSmall: a free list's first miss holds room for at
// most firstBufRecords records, whatever BufferThreshold is. A buffer
// filled past that grows, and the chunk boundaries stay where they were:
// every chunk but an iteration's last carries exactly BufferThreshold
// records.
func TestFirstBuffersStartSmall(t *testing.T) {
	if b := newFreeList(DefaultBufferThreshold, 2, boxedDef{}.newCols).get(); b.Cap() > firstBufRecords {
		t.Fatalf("a first miss has room for %d records, want at most %d", b.Cap(), firstBufRecords)
	}
	const thresh = 3 * firstBufRecords / 2
	var mu sync.Mutex
	data := map[int]int{} // records in a chunk that is not an iteration's last → chunks
	net := &tapNet{Network: transport.NewChanNetwork()}
	net.tap = func(_ transport.Endpoint, _ string, msg transport.Message) error {
		var n, end int
		switch c := msg.Payload.(type) {
		case shuffleChunk:
			n, end = recLen(c.Cols), c.End
		case stateChunk:
			n, end = recLen(c.Cols), c.End
		default:
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if end == 0 {
			data[n]++
		} else if n > thresh {
			data[n]++ // a last chunk past the threshold is as wrong
		}
		return nil
	}
	v := newEnvNet(t, cluster.Uniform(3), net, Options{})
	job, vals := ringSetup(t, v, 900)
	job.MaxIter = 3
	job.BufferThreshold = thresh
	res, err := v.e.Run(job)
	net.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := ringReference(vals, 3)
	for k, got := range v.readOutput(t, res.OutputPath) {
		if math.Abs(got.(float64)-want[k]) > 1e-9 {
			t.Fatalf("key %d = %v, want %v", k, got, want[k])
		}
	}
	mu.Lock()
	if data[thresh] == 0 || len(data) != 1 {
		t.Errorf("chunks by record count %v, want only %d-record chunks before an iteration's last", data, thresh)
	}
	mu.Unlock()
}

// TestSuperstepSteadyStateAllocs gates a warm superstep of an SSSP on the
// boxed loops over channels — one map/reduce pair driven handler by
// handler, as their loops drive them. What the user map boxes is measured
// on its own; beyond that the superstep allocates only the interface box
// of each message it sends (the shuffle chunk, the state chunk, the
// iteration report): no chunk buffer, accumulator, seen set or closure,
// and no key box — the map is handed its static record's key box and the
// reduce its previous state's, which the 300-node ring needs, since Go
// boxes an int64 of 256 or more on the heap.
func TestSuperstepSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, n := range []int{64, 300} {
		job := &Job{
			Name: fmt.Sprint("sssp-allocs-", n),
			Map: func(key, state, static any, emit kv.Emit) error {
				d := state.(float64)
				emit(key, d)
				if math.IsInf(d, 1) {
					return nil
				}
				for _, v := range static.([]int64) {
					emit(v, d+1)
				}
				return nil
			},
			// The winning box itself is the new state: the reduce allocates
			// nothing, so everything past the map's boxing is the engine's.
			Reduce: func(key any, states []any) (any, error) {
				best := states[0]
				for _, s := range states[1:] {
					if s.(float64) < best.(float64) {
						best = s
					}
				}
				return best, nil
			},
			Ops: f64Ops(),
		}
		superstep, state := scalarSuperstep(t, job, n)
		for i := 0; i < 3*n; i++ { // past convergence, every scratch at size
			superstep()
		}
		in := state()
		static := make([]any, n) // scalarSuperstep's ring with chords
		for i := range static {
			static[i] = []int64{int64((i + 1) % n), int64((i + 9) % n)}
		}
		boxes := testing.AllocsPerRun(50, func() {
			for _, p := range in {
				if err := job.Map(p.Key, p.Value, static[p.Key.(int64)], func(k, v any) {}); err != nil {
					t.Fatal(err)
				}
			}
		})
		const messages = 3
		if got := testing.AllocsPerRun(50, superstep); got > boxes+messages {
			t.Errorf("%d nodes: a warm superstep allocates %v times; the map boxes %v and %d messages box their headers", n, got, boxes, messages)
		}
		var dist []float64
		for _, p := range state() {
			dist = append(dist, p.Value.(float64))
		}
		if want := ringChordDistances(n); !slices.Equal(dist, want) {
			t.Fatalf("%d nodes: distances %v, want %v", n, dist, want)
		}
	}
}

// TestScalarSuperstepSteadyStateAllocs is TestSuperstepSteadyStateAllocs
// on the typed loops: a warm superstep of a 64-node SSSP built by
// ScalarJob allocates nothing to join, emit, shuffle, group, reduce,
// merge or send the new state — the static partition is unboxed, the
// typed map emits into columns, the reduce's groups, the previous-state
// run and the state chunk are columns — so it allocates only the
// interface box of each message it sends, past convergence and on a job
// whose every value changes every superstep alike.
func TestScalarSuperstepSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, messages = 64, 3
	sssp := ringSSSP("sssp-col-allocs").Build()
	if !typedLoops(sssp) {
		t.Fatal("the job does not run the typed loops")
	}
	superstep, state := scalarSuperstep(t, sssp, n)
	for i := 0; i < 3*n; i++ { // past convergence, every scratch at size
		superstep()
	}
	got := testing.AllocsPerRun(50, superstep)
	t.Logf("converged superstep: %v allocations", got)
	if got > messages {
		t.Errorf("a warm converged superstep allocates %v times; only its %d messages box their headers", got, messages)
	}
	var dist []float64
	for _, p := range state() {
		dist = append(dist, p.Value.(float64))
	}
	if want := ringChordDistances(n); !slices.Equal(dist, want) {
		t.Fatalf("distances %v, want %v", dist, want)
	}

	count := ScalarJob[float64, []int64]{
		Job: Job{Name: "count-col-allocs"},
		Map: func(k int64, c float64, adj []int64, emit func(int64, float64)) error {
			if math.IsInf(c, 1) {
				c = 0 // the counts start where SSSP's distances are ∞
			}
			emit(k, c)
			for _, v := range adj {
				emit(v, 0)
			}
			return nil
		},
		Reduce: func(_ int64, cs []float64) (float64, error) { return slices.Max(cs) + 1, nil },
	}.Build()
	superstep, _ = scalarSuperstep(t, count, n)
	for i := 0; i < 3; i++ {
		superstep()
	}
	got = testing.AllocsPerRun(50, superstep)
	t.Logf("superstep changing every value: %v allocations", got)
	if got > messages {
		t.Errorf("a warm superstep that changes all %d values allocates %v times; only its %d messages box their headers", n, got, messages)
	}
}

// ringSSSP is an unweighted SSSP over the static adjacency lists of
// scalarSuperstep.
func ringSSSP(name string) ScalarJob[float64, []int64] {
	return ScalarJob[float64, []int64]{
		Job: Job{Name: name},
		Map: func(k int64, d float64, adj []int64, emit func(int64, float64)) error {
			emit(k, d)
			if math.IsInf(d, 1) {
				return nil
			}
			for _, v := range adj {
				emit(v, d+1)
			}
			return nil
		},
		Reduce: func(_ int64, ds []float64) (float64, error) { return slices.Min(ds), nil },
	}
}

// BenchmarkSuperstepLoops times one warm, converged superstep of a
// 256-node SSSP — one map/reduce pair driven handler by handler, 768
// shuffle records — on each instantiation of the record loops: the typed
// one, and the boxed one the same job runs with its Reduce wrapped.
func BenchmarkSuperstepLoops(b *testing.B) {
	for _, loops := range []string{"typed", "boxed"} {
		b.Run(loops, func(b *testing.B) {
			job := ringSSSP("sssp-loops").Build()
			if loops == "boxed" {
				r := job.Reduce
				job.Reduce = func(k any, s []any) (any, error) { return r(k, s) }
			}
			superstep, _ := scalarSuperstep(b, job, 256)
			for i := 0; i < 1024; i++ {
				superstep()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				superstep()
			}
		})
	}
}

// scalarSuperstep wires one map/reduce pair of job over channels, with
// the static ring with chords of n nodes and state ∞ but 0 at node 0, and
// returns a superstep driven handler by handler, as the tasks' loops
// drive them, and the current state. Every superstep's shuffle and state
// travel as one chunk each.
func scalarSuperstep(t testing.TB, job *Job, n int) (superstep func(), state func() []kv.Pair) {
	t.Helper()
	job.MaxIter = 1 << 30
	job.BufferThreshold = 3*n + 1 // a full buffer would be sent ahead of the End
	spec := cluster.Uniform(1)
	net := transport.NewChanNetwork()
	t.Cleanup(func() { net.Close() })
	e, err := NewEngine(dfs.New(dfs.Config{}, spec.IDs(), nil), net, spec, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := newRunState(runMeta{Name: job.Name, MainPhases: 1, MainTasks: 1, Placement: spec.IDs()})
	f := &taskFactory{e: e, job: job, phases: job.Phases(), run: run, n: 1}
	endpoint := func(addr string) transport.Endpoint {
		ep, err := net.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	mep, rep, master := endpoint(mapAddr(job.Name, 0, 0)), endpoint(redAddr(job.Name, 0, 0)), endpoint(masterAddr(job.Name))
	mt, rt := f.buildMapTask(0, 0, mep), f.buildReduceTask(0, 0, rep)
	adj := make([]kv.Pair, n)
	init := make([]kv.Pair, n)
	for i := range adj {
		adj[i] = kv.Pair{Key: int64(i), Value: []int64{int64((i + 1) % n), int64((i + 9) % n)}}
		init[i] = kv.Pair{Key: int64(i), Value: math.Inf(1)}
	}
	init[0].Value = 0.0
	if err := mt.loops.setStatic(keyedRun(adj, job.Ops)); err != nil {
		t.Fatal(err)
	}
	if err := rt.loops.loadPrev(slices.Clone(init)); err != nil {
		t.Fatal(err)
	}
	mt.iter, rt.iter = 1, 1
	first, err := mt.loops.unbox(init)
	if err != nil {
		t.Fatal(err)
	}
	in := stateChunk{Iter: 1, Seq: 1, Cols: first, End: 1}
	superstep = func() {
		mt.handleState(in)
		rt.handleShuffle((<-rep.Recv()).Payload.(shuffleChunk))
		<-master.Recv() // the iteration report
		in = (<-mep.Recv()).Payload.(stateChunk)
	}
	return superstep, func() []kv.Pair { return in.Cols.Box(nil) }
}

// ringChordDistances is the BFS distance from node 0 in the ring with
// chords i -> i+1, i+9 over n nodes, by node.
func ringChordDistances(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[0] = 0
	for changed := true; changed; {
		changed = false
		for i := range d {
			for _, j := range []int{(i + 1) % n, (i + 9) % n} {
				if d[i]+1 < d[j] {
					d[j], changed = d[i]+1, true
				}
			}
		}
	}
	return d
}
