package core

import (
	"encoding/json"
	"testing"

	"imapreduce/internal/kv"
)

// FuzzManifest feeds arbitrary bytes through the Resume path as the
// manifest record of iteration 2 of a two-task, one-phase job whose
// checkpoint files are really there. Whatever the bytes, loadManifest and
// findManifest return without a panic, and a manifest they accept
// describes exactly this job's durable cut: its fingerprint, its task,
// auxiliary-task and phase counts, its iteration, and one verified part
// per task at that iteration's checkpoint path. Nothing else is ever
// resumed.
func FuzzManifest(f *testing.F) {
	const name, iter, tasks = "fz", 2, 2
	v := newEnv(f, 2, Options{})
	job := halvingJob(name, 4, 0)
	valid := manifest{Job: name, Fingerprint: confFingerprint(job), Iter: iter, Phases: 1, Tasks: tasks}
	for i := 0; i < tasks; i++ {
		path := ckptPath(name, iter, i)
		recs := []kv.Pair{{Key: int64(i), Value: float64(i) / 2}, {Key: int64(i + tasks), Value: 1.5}}
		if err := v.fs.WriteFile(path, "", recs, job.Ops); err != nil {
			f.Fatal(err)
		}
		st, err := v.fs.StatFile(path)
		if err != nil {
			f.Fatal(err)
		}
		crc, err := v.fs.Checksum(path)
		if err != nil {
			f.Fatal(err)
		}
		valid.Parts = append(valid.Parts, manifestPart{Path: path, Bytes: st.Bytes, Records: st.Records, CRC: crc})
	}
	seed := func(m manifest) {
		data, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(valid)
	for _, change := range []func(m *manifest){
		func(m *manifest) { m.Tasks = 3 },
		func(m *manifest) { m.Parts = m.Parts[:1] },
		func(m *manifest) { m.Phases = 2 },
		func(m *manifest) { m.AuxTasks = 1 },
		func(m *manifest) { m.Iter = 1 },
		func(m *manifest) { m.Job = "other" },
		func(m *manifest) { m.Parts[0], m.Parts[1] = m.Parts[1], m.Parts[0] },
		func(m *manifest) { m.Parts[1].CRC++ },
		func(m *manifest) { m.Placement = []string{"nowhere"} },
	} {
		m := valid
		m.Parts = append([]manifestPart(nil), valid.Parts...)
		change(&m)
		seed(m)
	}
	at := manifestPath(name, iter)
	if err := v.e.commitManifest(newRunState(runMeta{Name: name, MainPhases: 1, MainTasks: tasks}), valid.Fingerprint, iter, 1); err != nil {
		f.Fatal(err)
	}
	if m, err := v.e.findManifest(job, tasks, 0, 1); err != nil || m.Iter != iter {
		f.Fatalf("the committed manifest is not resumed: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := v.fs.WriteFile(at, "", []kv.Pair{{Key: "manifest", Value: string(data)}}, manifestOps); err != nil {
			t.Fatal(err)
		}
		if _, err := v.e.loadManifest(at); err != nil && json.Valid(data) {
			var m manifest
			if json.Unmarshal(data, &m) == nil {
				t.Fatalf("loadManifest refused a manifest json decodes: %v", err)
			}
		}
		m, err := v.e.findManifest(job, tasks, 0, 1)
		if err != nil {
			return
		}
		if m.Fingerprint != valid.Fingerprint || m.Job != name || m.Iter != iter ||
			m.Tasks != tasks || m.AuxTasks != 0 || m.Phases != 1 || len(m.Parts) != tasks {
			t.Fatalf("resumed a manifest that disagrees with the job: %+v", m)
		}
		for i, p := range m.Parts {
			if p != valid.Parts[i] {
				t.Fatalf("resumed part %d %+v, want %+v", i, p, valid.Parts[i])
			}
		}
	})
}
