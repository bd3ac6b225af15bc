package main

import (
	"fmt"
	"runtime"
	"time"

	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/transport"
)

// The layer probes time the packages' public functions from outside, on
// records of the workload's own shape. Each probe repeats a batch of
// calls probeBatches times and reports the median batch, which rides
// out a stray GC or scheduler hiccup without hiding a real change.
const (
	probeBatches  = 15
	probeBatchDur = 8 * time.Millisecond
)

// timeBatches calibrates how many calls fill one batch, then returns the
// median time per call in nanoseconds.
func timeBatches(fn func()) float64 {
	calls := 1
	for {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		if d := time.Since(start); d >= probeBatchDur/2 || calls >= 1<<20 {
			break
		}
		calls *= 2
	}
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(calls)
	}
	return median(per)
}

// probeKV times the codec and the sort/group paths on one real shuffle
// chunk.
func probeKV(res *RunResult, chunk []kv.Pair, ops kv.Ops) {
	if len(chunk) == 0 {
		return
	}
	n := float64(len(chunk))
	var buf []byte
	encodeNS := timeBatches(func() {
		var ok bool
		if buf, ok = kv.AppendPairs(buf[:0], chunk); !ok {
			panic("bench: workload chunk has a value type without a wire codec")
		}
	})
	res.set("kv.encode_ns_per_rec", encodeNS/n)
	res.set("kv.wire_bytes_per_rec", float64(len(buf))/n)

	decode := func() {
		slab := kv.AcquireSlab()
		if _, _, err := kv.DecodePairsSlab(buf, slab); err != nil {
			panic(err) // buf was produced by AppendPairs just above
		}
		slab.Release()
	}
	res.set("kv.decode_ns_per_rec", timeBatches(decode)/n)
	const allocRuns = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	res.set("kv.decode_allocs_per_chunk", float64(after.Mallocs-before.Mallocs)/allocRuns)

	scratch := make([]kv.Pair, len(chunk))
	res.set("kv.sort_ns_per_rec", timeBatches(func() {
		copy(scratch, chunk) // SortPairs sorts in place: start from arrival order each time
		ops.SortPairs(scratch)
	})/n)
	res.set("kv.group_ns_per_rec", timeBatches(func() {
		copy(scratch, chunk)
		kv.GroupPairs(scratch, ops)
	})/n)
}

// chunkPayload is the benchmark's own WireMarshaler: a real chunk behind
// the binary fast-path frame, decoded on the far side the way the engine
// decodes its chunks (slab decode, release when done).
type chunkPayload struct {
	pairs []kv.Pair
	slab  *kv.Slab
}

const chunkTag = "bench.chunk"

func (c chunkPayload) WireTag() string { return chunkTag }

func (c chunkPayload) AppendWire(buf []byte) ([]byte, bool) {
	return kv.AppendPairs(buf, c.pairs)
}

func init() {
	transport.RegisterWireUnmarshaler(chunkTag, func(data []byte) (any, error) {
		slab := kv.AcquireSlab()
		pairs, _, err := kv.DecodePairsSlab(data, slab)
		if err != nil {
			slab.Release()
			return nil, err
		}
		return chunkPayload{pairs: pairs, slab: slab}, nil
	})
}

const (
	rttRounds   = 2000
	streamMsgs  = 4000
	probeWaitup = 20 * time.Second
)

// probeTransport measures a two-endpoint network of the workload's
// kind: the round trip of a small control message and the streaming
// rate of real chunks, endpoint to endpoint.
func probeTransport(res *RunResult, chunk []kv.Pair, tcp bool) {
	var net transport.Network = transport.NewChanNetwork()
	if tcp {
		net = transport.NewTCPNetwork()
	}
	defer net.Close()
	rtt, streamDur, streamBytes, err := measureNetwork(net, chunk)
	if err != nil {
		res.note("transport probe: %v", err)
		return
	}
	if tcp {
		res.set("transport.tcp_rtt_us", rtt)
		res.set("transport.tcp_stream_mb_s", float64(streamBytes)/1e6/streamDur.Seconds())
	} else {
		res.set("transport.chan_rtt_us", rtt)
		res.set("transport.chan_stream_msgs_s", streamMsgs/streamDur.Seconds())
	}
}

func measureNetwork(net transport.Network, chunk []kv.Pair) (rttUS float64, streamDur time.Duration, streamBytes int64, err error) {
	a, err := net.Endpoint("probe/a")
	if err != nil {
		return 0, 0, 0, err
	}
	b, err := net.Endpoint("probe/b")
	if err != nil {
		return 0, 0, 0, err
	}
	// b echoes pings and counts chunks; it stops when its endpoint closes.
	streamed := make(chan struct{})
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		got := 0
		for m := range b.Recv() {
			switch m.Kind {
			case "ping":
				_ = b.Send("probe/a", transport.Message{Kind: "pong", Payload: m.Payload, Size: m.Size}) // a lost pong shows as the timeout below
			case "chunk":
				if c, ok := m.Payload.(chunkPayload); ok && c.slab != nil {
					c.slab.Release()
				}
				if got++; got == streamMsgs {
					close(streamed)
				}
			}
		}
	}()
	defer func() {
		_ = a.Close()
		_ = b.Close()
		<-echoDone
	}()

	timeout := time.NewTimer(probeWaitup)
	defer timeout.Stop()
	rtts := make([]float64, 0, rttRounds)
	for i := 0; i < rttRounds+50; i++ {
		start := time.Now()
		if err := a.Send("probe/b", transport.Message{Kind: "ping", Payload: "ping", Size: 4}); err != nil {
			return 0, 0, 0, err
		}
		select {
		case <-a.Recv():
		case <-timeout.C:
			return 0, 0, 0, fmt.Errorf("no pong within %s", probeWaitup)
		}
		if i >= 50 { // the first rounds pay the dial
			rtts = append(rtts, us(time.Since(start)))
		}
	}

	size := int64(len(chunk)) * 16
	bytesBefore := net.BytesSent()
	start := time.Now()
	for i := 0; i < streamMsgs; i++ {
		if err := a.Send("probe/b", transport.Message{Kind: "chunk", Payload: chunkPayload{pairs: chunk}, Size: size}); err != nil {
			return 0, 0, 0, err
		}
	}
	select {
	case <-streamed:
	case <-timeout.C:
		return 0, 0, 0, fmt.Errorf("stream not delivered within %s", probeWaitup)
	}
	return median(rtts), time.Since(start), net.BytesSent() - bytesBefore, nil
}

// probeDFS times writing and reading back one state partition on a
// fresh default-configured DFS, from the node holding the first replica.
func probeDFS(res *RunResult, part []kv.Pair, ops kv.Ops) {
	if len(part) == 0 {
		return
	}
	nodes := []string{"n0", "n1", "n2", "n3"}
	fs := dfs.New(dfs.DefaultConfig(), nodes, nil)
	const path = "/probe/part"
	var werr error
	writeNS := timeBatches(func() {
		if err := fs.WriteFile(path, nodes[0], part, ops); err != nil {
			werr = err
		}
	})
	if werr != nil {
		res.note("dfs probe: %v", werr)
		return
	}
	st, err := fs.StatFile(path)
	if err != nil {
		res.note("dfs probe: %v", err)
		return
	}
	readNS := timeBatches(func() {
		if _, err := fs.ReadFile(path, nodes[0]); err != nil {
			werr = err
		}
	})
	if werr != nil {
		res.note("dfs probe: %v", werr)
		return
	}
	res.set("dfs.write_mb_s", float64(st.Bytes)/1e6/(writeNS/1e9))
	res.set("dfs.read_mb_s", float64(st.Bytes)/1e6/(readNS/1e9))
}
