package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"imapreduce/internal/kv"
	"imapreduce/internal/metrics"
	"imapreduce/internal/trace"
	"imapreduce/internal/transport"
)

// The checkpoint commit protocol (DESIGN.md §9): each CheckpointEvery
// boundary writes one checkpoint file per partition, then the master
// commits a small *manifest* describing the durable cut — job identity,
// a fingerprint of the job configuration, the phase layout, the
// iteration, and each partition file with its size and CRC. Both the
// partition files and the manifest go through write-temp-then-rename, so
// a crash at any instant leaves either the previous complete checkpoint
// or the new complete one, never a torn state. A cold restart (Resume)
// scans the manifests, verifies the newest complete one, and continues
// from its iteration.

// manifest is the durable record of one committed checkpoint. It is
// stored JSON-encoded as a one-record DFS file so it survives engine
// death, spills cleanly, and stays human-readable in dumps.
type manifest struct {
	Job         string
	Fingerprint uint64
	Iter        int
	Phases      int
	Tasks       int
	AuxTasks    int
	// Placement is the worker binding of each main task pair at commit
	// time; Resume adopts it so partitions land where their static data
	// already is.
	Placement    []string
	AuxPlacement []string
	Parts        []manifestPart
}

// manifestPart describes one partition's checkpoint file.
type manifestPart struct {
	Path    string
	Bytes   int64
	Records int
	CRC     uint32
}

// manifestOps sizes the single string record a manifest file holds.
var manifestOps = kv.OpsFor[string, string](nil)

func manifestPath(jobName string, iter int) string {
	return fmt.Sprintf("/_imr/%s/manifest-%06d", jobName, iter)
}

const manifestPrefix = "manifest-"

// manifestIter parses the iteration out of a manifest path; ok=false for
// temp files and foreign paths.
func manifestIter(jobName, path string) (int, bool) {
	prefix := "/_imr/" + jobName + "/" + manifestPrefix
	rest, found := strings.CutPrefix(path, prefix)
	if !found {
		return 0, false
	}
	it, err := strconv.Atoi(rest)
	if err != nil {
		return 0, false
	}
	return it, true
}

// confFingerprint hashes the structure of the job definition — phase
// layout, data paths, termination settings, task counts, mappings — so a
// Resume against a *different* job definition is rejected instead of
// feeding mismatched checkpoints into it. User functions cannot be
// hashed; the structural fields are the detectable surface.
func confFingerprint(job *Job) uint64 {
	h := fnv.New64a()
	w := func(parts ...string) {
		for _, s := range parts {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	hashPhase := func(p *Job, tag string) {
		w(tag, p.Name, p.StatePath, p.StaticPath, p.OutputPath,
			strconv.Itoa(p.MaxIter),
			strconv.FormatFloat(p.DistThreshold, 'g', -1, 64),
			strconv.Itoa(p.NumTasks),
			p.Mapping.String(),
			strconv.FormatBool(p.SyncMap),
			strconv.Itoa(p.CheckpointEvery),
		)
	}
	for i, p := range job.Phases() {
		hashPhase(p, "phase"+strconv.Itoa(i))
	}
	if job.auxiliary != nil {
		hashPhase(job.auxiliary, "aux")
	}
	return h.Sum64()
}

// commitManifest makes checkpoint iteration iter durable: it stats and
// checksums every partition file, then writes the manifest via
// temp-then-rename. An error means the checkpoint is NOT durable (the
// master keeps the previous rollback target); the run itself continues.
func (e *Engine) commitManifest(run *runState, fp uint64, iter, phases int) error {
	m := manifest{
		Job:         run.name,
		Fingerprint: fp,
		Iter:        iter,
		Phases:      phases,
		Tasks:       run.mainTasks,
		AuxTasks:    run.auxTasks,
	}
	run.mu.RLock()
	m.Placement = append([]string(nil), run.pairWorker...)
	m.AuxPlacement = append([]string(nil), run.auxWorker...)
	run.mu.RUnlock()
	for i := 0; i < run.mainTasks; i++ {
		path := run.ckptPath(iter, i)
		st, err := e.fs.StatFile(path)
		if err != nil {
			return fmt.Errorf("core: manifest %d: %w", iter, err)
		}
		crc, err := e.fs.Checksum(path)
		if err != nil {
			return fmt.Errorf("core: manifest %d: %w", iter, err)
		}
		m.Parts = append(m.Parts, manifestPart{Path: path, Bytes: st.Bytes, Records: st.Records, CRC: crc})
	}
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("core: manifest %d: %w", iter, err)
	}
	final := manifestPath(run.name, iter)
	tmp := final + ".tmp"
	rec := []kv.Pair{{Key: "manifest", Value: string(data)}}
	if err := e.fs.WriteFile(tmp, "", rec, manifestOps); err != nil {
		return fmt.Errorf("core: manifest %d: %w", iter, err)
	}
	if err := e.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("core: manifest %d: %w", iter, err)
	}
	e.m.Add(metrics.ManifestCommits, 1)
	e.opts.Trace.Emit(trace.KindManifest, "master", -1, iter)
	return nil
}

// ckptLedger is the master's account of checkpoint progress: which
// partitions have acknowledged which iteration under the current
// generation, and the newest iteration whose manifest is durable — the
// rollback target.
type ckptLedger struct {
	e    *Engine
	run  *runState
	fp   uint64
	gen  int
	last int
	acks map[int]map[int]bool
}

// reset opens generation gen: acknowledgements of the generations before
// it no longer count.
func (c *ckptLedger) reset(gen int) {
	c.gen, c.acks = gen, make(map[int]map[int]bool)
}

// ack folds in one partition's acknowledgement. Once every partition
// file of an iteration is committed, the manifest commit makes the
// checkpoint durable — only then does it become the rollback target, and
// only then are its predecessors garbage-collected. A failed commit (DFS
// trouble) leaves the previous checkpoint in force; the run continues
// and the next boundary tries again — unless the state holds a record
// with no codec, which no retry can checksum: that error is returned.
func (c *ckptLedger) ack(pl ckptMsg) error {
	if pl.Gen != c.gen {
		return nil
	}
	if c.acks[pl.Iter] == nil {
		c.acks[pl.Iter] = make(map[int]bool)
	}
	c.acks[pl.Iter][pl.Task] = true
	if len(c.acks[pl.Iter]) == c.run.mainTasks && pl.Iter > c.last {
		err := c.e.commitManifest(c.run, c.fp, pl.Iter, c.run.mainPhases)
		if err == nil {
			c.last = pl.Iter
			c.e.gcCheckpoints(c.run, c.last)
		} else if errors.Is(err, kv.ErrNoCodec) {
			return err
		}
	}
	return nil
}

// settle closes the account of a completed run. Checkpoint writers run
// beside the iterations (§3.4.1), so a descheduled one may rename its
// file into place after the collection that superseded it, and an
// acknowledgement the network delayed may reach the master behind the
// last final. By now the hosts are joined — every writer has exited —
// and inbox is the closed master endpoint's: what is still in it is
// folded in, and one more collection leaves only the newest durable
// checkpoint and whatever is newer.
func (c *ckptLedger) settle(inbox <-chan transport.Message) {
	for msg := range inbox {
		if pl, ok := msg.Payload.(ckptMsg); ok {
			_ = c.ack(pl) // the run is over: nothing left to fail
		}
	}
	if c.last > 0 { // nothing is older than the initial state
		c.e.gcCheckpoints(c.run, c.last)
	}
}

// loadManifest reads and decodes one manifest file.
func (e *Engine) loadManifest(path string) (*manifest, error) {
	recs, err := e.fs.ReadFile(path, "")
	if err != nil {
		return nil, err
	}
	if len(recs) != 1 {
		return nil, fmt.Errorf("core: manifest %s: %d records, want 1", path, len(recs))
	}
	s, ok := recs[0].Value.(string)
	if !ok {
		return nil, fmt.Errorf("core: manifest %s: value is %T, want string", path, recs[0].Value)
	}
	var m manifest
	if err := json.Unmarshal([]byte(s), &m); err != nil {
		return nil, fmt.Errorf("core: manifest %s: %w", path, err)
	}
	return &m, nil
}

// verifyManifest checks that every partition file the manifest names
// still exists with the recorded size, record count, and CRC.
func (e *Engine) verifyManifest(m *manifest) error {
	if len(m.Parts) != m.Tasks {
		return fmt.Errorf("core: manifest %d lists %d parts, want %d", m.Iter, len(m.Parts), m.Tasks)
	}
	for _, p := range m.Parts {
		st, err := e.fs.StatFile(p.Path)
		if err != nil {
			return fmt.Errorf("core: manifest %d: %w", m.Iter, err)
		}
		if st.Bytes != p.Bytes || st.Records != p.Records {
			return fmt.Errorf("core: manifest %d: %s is %d bytes / %d records, manifest says %d / %d",
				m.Iter, p.Path, st.Bytes, st.Records, p.Bytes, p.Records)
		}
		crc, err := e.fs.Checksum(p.Path)
		if err != nil {
			return fmt.Errorf("core: manifest %d: %w", m.Iter, err)
		}
		if crc != p.CRC {
			return fmt.Errorf("core: manifest %d: %s CRC %08x, manifest says %08x", m.Iter, p.Path, crc, p.CRC)
		}
	}
	return nil
}

// findManifest locates the newest complete, verifiable manifest for job
// and checks it against the submitted job definition. A fingerprint or
// layout mismatch on a readable manifest is a hard error — resuming a
// different job over these checkpoints would corrupt it silently. A
// manifest whose partition files are damaged is skipped in favor of the
// next older one (the crash may have interrupted the GC, not the
// commit).
func (e *Engine) findManifest(job *Job, n, auxN, phases int) (*manifest, error) {
	fp := confFingerprint(job)
	paths := e.fs.List("/_imr/" + job.Name + "/" + manifestPrefix)
	type cand struct {
		iter int
		path string
	}
	var cands []cand
	for _, p := range paths {
		if it, ok := manifestIter(job.Name, p); ok {
			cands = append(cands, cand{iter: it, path: p})
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("core: job %s: no durable checkpoint manifest to resume from", job.Name)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].iter > cands[j].iter })
	var lastErr error
	for _, c := range cands {
		m, err := e.loadManifest(c.path)
		if err != nil {
			lastErr = err
			continue
		}
		if m.Fingerprint != fp {
			return nil, fmt.Errorf("core: job %s: manifest %d was written by a different job definition (fingerprint %016x, submitted job %016x)",
				job.Name, m.Iter, m.Fingerprint, fp)
		}
		if m.Tasks != n || m.AuxTasks != auxN || m.Phases != phases {
			return nil, fmt.Errorf("core: job %s: manifest %d layout %d tasks / %d aux / %d phases does not match submitted job (%d / %d / %d)",
				job.Name, m.Iter, m.Tasks, m.AuxTasks, m.Phases, n, auxN, phases)
		}
		if err := e.verifyManifest(m); err != nil {
			lastErr = err
			continue
		}
		return m, nil
	}
	return nil, fmt.Errorf("core: job %s: no verifiable checkpoint manifest: %w", job.Name, lastErr)
}

// gcCheckpoints deletes checkpoint files and manifests superseded by the
// checkpoint at keepIter — anything strictly older. Newer entries are
// left alone: they may be a checkpoint currently being committed.
func (e *Engine) gcCheckpoints(run *runState, keepIter int) {
	removed := int64(0)
	prefix := "/_imr/" + run.name + "/ckpt-"
	for _, p := range e.fs.List(prefix) {
		rest := strings.TrimPrefix(p, prefix)
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			continue
		}
		it, err := strconv.Atoi(rest[:slash])
		if err != nil || it >= keepIter {
			continue
		}
		e.fs.Delete(p)
		removed++
	}
	for _, p := range e.fs.List("/_imr/" + run.name + "/" + manifestPrefix) {
		if it, ok := manifestIter(run.name, p); ok && it < keepIter {
			e.fs.Delete(p)
			removed++
		}
	}
	if removed > 0 {
		e.m.Add(metrics.CheckpointsGCed, removed)
	}
}
