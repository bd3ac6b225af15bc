// Package matpower implements repeated matrix multiplication M^k (paper
// §5.2) with two map-reduce phases per iteration: phase 1 keys the
// iterated matrix N by column-group index j; phase 2 joins row j of N
// with column j of the static multiplicand M and emits the products,
// which phase 2's reduce sums into N' = M·N.
//
// Also provided: the baseline two-jobs-per-iteration MapReduce chain and
// a direct sequential reference.
package matpower

import (
	"fmt"
	"math/rand"

	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/mapreduce"
)

// Pack encodes matrix coordinates (i, j) into one int64 key.
func Pack(i, j int32) int64 { return int64(i)<<32 | int64(uint32(j)) }

// Unpack reverses Pack.
func Unpack(key int64) (i, j int32) { return int32(key >> 32), int32(uint32(key)) }

// Entry is one (index, value) element of a row or column vector.
type Entry struct {
	K int32
	V float64
}

// Row is row j of the iterated matrix, the state record between phase 1
// and phase 2.
type Row struct {
	Entries []Entry
}

// Bytes implements kv.Sized.
func (r Row) Bytes() int { return 12*len(r.Entries) + 4 }

// Col is column j of the static multiplicand M.
type Col struct {
	Idx []int32
	Val []float64
}

// Bytes implements kv.Sized.
func (c Col) Bytes() int { return 12*len(c.Idx) + 4 }

func walkEntry(f *kv.Fields, e *Entry) { f.Int32(&e.K); f.F64(&e.V) }

func walkEntries(f *kv.Fields, es *[]Entry) {
	for s, i := kv.Elems(f, es), 0; i < len(s); i++ {
		walkEntry(f, &s[i])
	}
}

func init() {
	kv.Register(walkEntry)
	kv.Register(func(f *kv.Fields, r *Row) { walkEntries(f, &r.Entries) })
	kv.Register(walkEntries)
	kv.Register(func(f *kv.Fields, c *Col) { f.Int32s(&c.Idx); f.F64s(&c.Val) })
}

// Dense is a square matrix in row-major order.
type Dense struct {
	N int
	V []float64
}

// Random generates an N×N matrix with entries in [0, 1/N) so powers stay
// bounded.
func Random(n int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := &Dense{N: n, V: make([]float64, n*n)}
	for i := range m.V {
		m.V[i] = rng.Float64() / float64(n)
	}
	return m
}

// At returns m[i][j].
func (m *Dense) At(i, j int) float64 { return m.V[i*m.N+j] }

// Mul returns m·x.
func (m *Dense) Mul(x *Dense) *Dense {
	n := m.N
	out := &Dense{N: n, V: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			mik := m.V[i*n+k]
			if mik == 0 {
				continue
			}
			row := x.V[k*n:]
			outRow := out.V[i*n:]
			for j := 0; j < n; j++ {
				outRow[j] += mik * row[j]
			}
		}
	}
	return out
}

// Pow returns m^k (k ≥ 1) by repeated multiplication — the sequential
// reference.
func (m *Dense) Pow(k int) *Dense {
	cur := m
	for i := 1; i < k; i++ {
		cur = m.Mul(cur)
	}
	return cur
}

// EntryOps is the kv.Ops for packed-coordinate float records.
func EntryOps() kv.Ops { return kv.OpsFor[int64, float64](nil) }

// StatePairs flattens a matrix into (Pack(i,j) → value) records — the
// initial N = M.
func StatePairs(m *Dense) []kv.Pair {
	out := make([]kv.Pair, 0, m.N*m.N)
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			out = append(out, kv.Pair{Key: Pack(int32(i), int32(j)), Value: m.At(i, j)})
		}
	}
	return out
}

// StaticPairs builds M's columns keyed by column index — the static data
// joined at phase 2's map (§5.2.2).
func StaticPairs(m *Dense) []kv.Pair {
	out := make([]kv.Pair, m.N)
	for j := 0; j < m.N; j++ {
		c := Col{Idx: make([]int32, m.N), Val: make([]float64, m.N)}
		for i := 0; i < m.N; i++ {
			c.Idx[i] = int32(i)
			c.Val[i] = m.At(i, j)
		}
		out[j] = kv.Pair{Key: int64(j), Value: c}
	}
	return out
}

// WriteInputs stores the static columns of M and the initial state
// N = M.
func WriteInputs(fs *dfs.DFS, at string, m *Dense, staticPath, statePath string) error {
	if err := fs.WriteFile(staticPath, at, StaticPairs(m), kv.OpsFor[int64, Col](Col.Bytes)); err != nil {
		return err
	}
	return fs.WriteFile(statePath, at, StatePairs(m), EntryOps())
}

// IMRConfig parameterizes the two-phase iMapReduce job.
type IMRConfig struct {
	Name       string
	StaticPath string // columns of M
	StatePath  string // entries of N (initially M)
	OutputPath string
	MaxIter    int // number of multiplications: result is M^(MaxIter+1)
	NumTasks   int
	Checkpoint int
}

// IMRJob builds the chained two-phase job (§5.2.2:
// job1.addSuccessor(job2), job2.addSuccessor(job1) implied by the loop).
func IMRJob(cfg IMRConfig) *core.Job {
	phase1 := &core.Job{
		Name:      cfg.Name,
		StatePath: cfg.StatePath,
		// Map 1: route N's entry (j,k) to key j (§5.2.1 Map 1, N side).
		Map: func(key, state, static any, emit kv.Emit) error {
			j, k := Unpack(key.(int64))
			emit(int64(j), Entry{K: k, V: state.(float64)})
			return nil
		},
		// Reduce 1: collect row j of N (§5.2.1 Reduce 1).
		Reduce: func(key any, states []any) (any, error) {
			row := Row{Entries: make([]Entry, 0, len(states))}
			for _, s := range states {
				row.Entries = append(row.Entries, s.(Entry))
			}
			return row, nil
		},
		Ops: kv.OpsFor[int64, Row](Row.Bytes),
	}
	phase2 := &core.Job{
		Name:       cfg.Name + "-p2",
		StaticPath: cfg.StaticPath,
		// Map 2: multiply column j of M with row j of N (§5.2.1 Map 2).
		Map: func(key, state, static any, emit kv.Emit) error {
			if static == nil {
				return fmt.Errorf("matpower: missing column %v of M", key)
			}
			col := static.(Col)
			row := state.(Row)
			for ci := range col.Idx {
				mij := col.Val[ci]
				i := col.Idx[ci]
				for _, e := range row.Entries {
					emit(Pack(i, e.K), mij*e.V)
				}
			}
			return nil
		},
		// Reduce 2: sum the products into P(i,k) (§5.2.1 Reduce 2).
		Reduce: func(key any, states []any) (any, error) {
			var sum float64
			for _, s := range states {
				sum += s.(float64)
			}
			return sum, nil
		},
		MaxIter:         cfg.MaxIter,
		NumTasks:        cfg.NumTasks,
		CheckpointEvery: cfg.Checkpoint,
		OutputPath:      cfg.OutputPath,
		Ops:             EntryOps(),
	}
	phase1.NumTasks = cfg.NumTasks
	phase1.OutputPath = cfg.OutputPath
	phase1.AddSuccessor(phase2)
	return phase1
}

// MRResult reports the baseline chain.
type MRResult struct {
	Iterations int
	// Result maps packed coordinates to values of M^(Iterations+1).
	Result map[int64]float64
	// Walls/Inits are per-iteration totals over the two jobs
	// (nanoseconds).
	Walls []int64
	Inits []int64
}

type taggedEntry struct {
	FromM bool
	I     int32 // row (M) or column (N) index
	V     float64
}

type joined struct {
	Ms []taggedEntry
	Ns []taggedEntry
}

func (j joined) Bytes() int { return 16 * (len(j.Ms) + len(j.Ns)) }

func walkTagged(f *kv.Fields, e *taggedEntry) { f.Bool(&e.FromM); f.Int32(&e.I); f.F64(&e.V) }

func walkTaggeds(f *kv.Fields, es *[]taggedEntry) {
	for s, i := kv.Elems(f, es), 0; i < len(s); i++ {
		walkTagged(f, &s[i])
	}
}

func init() {
	kv.Register(walkTagged)
	kv.Register(func(f *kv.Fields, j *joined) { walkTaggeds(f, &j.Ms); walkTaggeds(f, &j.Ns) })
}

// RunMR executes the baseline: each iteration is TWO chained MapReduce
// jobs (join, then multiply/sum), with M re-read and re-shuffled every
// iteration (§5.2.1).
func RunMR(e *mapreduce.Engine, name, mPath string, m *Dense, workDir string, numReduce, iters int) (*MRResult, error) {
	fs := e.FS()
	// The iterated matrix starts as M's entries.
	nPath := workDir + "/n-000"
	if err := fs.WriteFile(nPath, e.Spec().IDs()[0], StatePairs(m), EntryOps()); err != nil {
		return nil, err
	}
	res := &MRResult{}
	for it := 1; it <= iters; it++ {
		joinOut := fmt.Sprintf("%s/join-%03d", workDir, it)
		job1 := &mapreduce.Job{
			Name:   fmt.Sprintf("%s-join-%03d", name, it),
			Input:  []string{mPath, nPath},
			Output: joinOut,
			// Map 1: key M's (i,j) by j, N's (j,k) by j (§5.2.1).
			MapSrc: func(path string, key, value any, emit kv.Emit) error {
				i, j := Unpack(key.(int64))
				if path == mPath {
					emit(int64(j), taggedEntry{FromM: true, I: i, V: value.(float64)})
				} else {
					emit(int64(i), taggedEntry{FromM: false, I: j, V: value.(float64)})
				}
				return nil
			},
			Reduce: func(key any, values []any, emit kv.Emit) error {
				var jn joined
				for _, v := range values {
					t := v.(taggedEntry)
					if t.FromM {
						jn.Ms = append(jn.Ms, t)
					} else {
						jn.Ns = append(jn.Ns, t)
					}
				}
				emit(key, jn)
				return nil
			},
			NumReduce: numReduce,
			Ops:       kv.OpsFor[int64, joined](joined.Bytes),
		}
		r1, err := e.Submit(job1)
		if err != nil {
			return nil, err
		}

		mulOut := fmt.Sprintf("%s/n-%03d", workDir, it)
		job2 := &mapreduce.Job{
			Name:   fmt.Sprintf("%s-mul-%03d", name, it),
			Input:  []string{joinOut},
			Output: mulOut,
			// Map 2: all M×N permutations per join key (§5.2.1).
			Map: func(key, value any, emit kv.Emit) error {
				jn := value.(joined)
				for _, me := range jn.Ms {
					for _, ne := range jn.Ns {
						emit(Pack(me.I, ne.I), me.V*ne.V)
					}
				}
				return nil
			},
			Reduce: func(key any, values []any, emit kv.Emit) error {
				var sum float64
				for _, v := range values {
					sum += v.(float64)
				}
				emit(key, sum)
				return nil
			},
			NumReduce: numReduce,
			Ops:       EntryOps(),
		}
		r2, err := e.Submit(job2)
		if err != nil {
			return nil, err
		}
		res.Walls = append(res.Walls, int64(r1.Wall+r2.Wall))
		res.Inits = append(res.Inits, int64(r1.Init+r2.Init))
		res.Iterations = it

		// Clean up the previous N and the join output.
		for _, p := range fs.List(joinOut + "/") {
			fs.Delete(p)
		}
		if it >= 2 {
			for _, p := range fs.List(fmt.Sprintf("%s/n-%03d/", workDir, it-1)) {
				fs.Delete(p)
			}
		}
		nPath = mulOut
	}
	res.Result = map[int64]float64{}
	for _, p := range fs.List(nPath + "/") {
		recs, err := fs.ReadFile(p, e.Spec().IDs()[0])
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			res.Result[r.Key.(int64)] = r.Value.(float64)
		}
	}
	return res, nil
}
