// Package jacobi implements the Jacobi method for linear systems
// Ax = b, the paper's first example of an algorithm that needs the
// one-to-all broadcast (§5.1): x(k+1) = D⁻¹(b − R·x(k)), where every
// mapper needs the entire iterated vector x.
//
// Static data: one record per row i holding bᵢ, the diagonal dᵢᵢ, and
// the off-diagonal entries Rᵢ. State data: the solution vector x,
// broadcast from all reduce tasks to all map tasks each iteration.
package jacobi

import (
	"fmt"
	"math"
	"math/rand"

	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
)

// Row is one equation of the system: the static record for key i.
type Row struct {
	B    float64   // right-hand side bᵢ
	Diag float64   // dᵢᵢ (must be non-zero)
	Idx  []int32   // column indices of the off-diagonal entries
	Val  []float64 // their values (Rᵢⱼ)
}

// Bytes implements kv.Sized.
func (r Row) Bytes() int { return 16 + 12*len(r.Idx) + 4 }

func init() {
	kv.Register(func(f *kv.Fields, r *Row) { f.F64(&r.B); f.F64(&r.Diag); f.Int32s(&r.Idx); f.F64s(&r.Val) })
}

// System is a dense linear system Ax = b.
type System struct {
	N int
	A []float64 // row-major
	B []float64
}

// RandomDiagDominant generates a strictly diagonally dominant system,
// for which Jacobi is guaranteed to converge.
func RandomDiagDominant(n int, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	s := &System{N: n, A: make([]float64, n*n), B: make([]float64, n)}
	for i := 0; i < n; i++ {
		var offSum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.Float64()*2 - 1
			s.A[i*n+j] = v
			offSum += math.Abs(v)
		}
		s.A[i*n+i] = offSum + 1 + rng.Float64() // strict dominance
		s.B[i] = rng.Float64() * 10
	}
	return s
}

// StaticPairs converts the system to per-row static records.
func StaticPairs(s *System) []kv.Pair {
	out := make([]kv.Pair, s.N)
	for i := 0; i < s.N; i++ {
		row := Row{B: s.B[i], Diag: s.A[i*s.N+i]}
		for j := 0; j < s.N; j++ {
			if j == i || s.A[i*s.N+j] == 0 {
				continue
			}
			row.Idx = append(row.Idx, int32(j))
			row.Val = append(row.Val, s.A[i*s.N+j])
		}
		out[i] = kv.Pair{Key: int64(i), Value: row}
	}
	return out
}

// StatePairs is the initial guess x⁰ = 0.
func StatePairs(n int) []kv.Pair {
	out := make([]kv.Pair, n)
	for i := range out {
		out[i] = kv.Pair{Key: int64(i), Value: 0.0}
	}
	return out
}

// StateOps is the kv.Ops for (row → xᵢ) records.
func StateOps() kv.Ops { return kv.OpsFor[int64, float64](nil) }

// WriteInputs stores the system (static) and the zero guess (state).
func WriteInputs(fs *dfs.DFS, at string, s *System, staticPath, statePath string) error {
	if err := fs.WriteFile(staticPath, at, StaticPairs(s), kv.OpsFor[int64, Row](Row.Bytes)); err != nil {
		return err
	}
	return fs.WriteFile(statePath, at, StatePairs(s.N), StateOps())
}

// IMRConfig parameterizes the iMapReduce job.
type IMRConfig struct {
	Name          string
	StaticPath    string
	StatePath     string
	OutputPath    string
	MaxIter       int
	DistThreshold float64
	NumTasks      int
	Checkpoint    int
}

// IMRJob builds the broadcast Jacobi job: map receives the whole x
// vector (state list) with its static row and emits the row's new
// component; reduce is the identity over single values.
func IMRJob(cfg IMRConfig) *core.Job {
	return &core.Job{
		Name:       cfg.Name,
		StatePath:  cfg.StatePath,
		StaticPath: cfg.StaticPath,
		OutputPath: cfg.OutputPath,
		Mapping:    core.OneToAll,
		SyncMap:    true, // broadcast input implies synchronous maps (§5.1.2)
		Map: func(key, state, static any, emit kv.Emit) error {
			row := static.(Row)
			// Index the broadcast vector once per call; the state list
			// is key-sorted so direct indexing by position works for
			// dense vectors, but we look up defensively by key.
			x := state.([]kv.Pair)
			sum := row.B
			for k, j := range row.Idx {
				xv, err := lookup(x, int64(j))
				if err != nil {
					return err
				}
				sum -= row.Val[k] * xv
			}
			emit(key, sum/row.Diag)
			return nil
		},
		Reduce: func(key any, states []any) (any, error) {
			if len(states) != 1 {
				return nil, fmt.Errorf("jacobi: row %v received %d values, want 1", key, len(states))
			}
			return states[0], nil
		},
		Distance: func(key, prev, curr any) float64 {
			return math.Abs(prev.(float64) - curr.(float64))
		},
		MaxIter:         cfg.MaxIter,
		DistThreshold:   cfg.DistThreshold,
		NumTasks:        cfg.NumTasks,
		CheckpointEvery: cfg.Checkpoint,
		Ops:             StateOps(),
	}
}

// lookup finds key in a key-sorted pair list by binary search.
func lookup(pairs []kv.Pair, key int64) (float64, error) {
	lo, hi := 0, len(pairs)
	for lo < hi {
		mid := (lo + hi) / 2
		k := pairs[mid].Key.(int64)
		switch {
		case k == key:
			return pairs[mid].Value.(float64), nil
		case k < key:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0, fmt.Errorf("jacobi: x[%d] missing from broadcast state", key)
}

// Reference runs iters sequential Jacobi iterations from x⁰ = 0.
func Reference(s *System, iters int) []float64 {
	n := s.N
	x := make([]float64, n)
	for k := 0; k < iters; k++ {
		next := make([]float64, n)
		for i := 0; i < n; i++ {
			sum := s.B[i]
			for j := 0; j < n; j++ {
				if j != i {
					sum -= s.A[i*n+j] * x[j]
				}
			}
			next[i] = sum / s.A[i*n+i]
		}
		x = next
	}
	return x
}

// Solve computes the exact solution by Gaussian elimination with
// partial pivoting — the ground truth the converged iteration must
// approach.
func Solve(s *System) ([]float64, error) {
	n := s.N
	a := make([]float64, len(s.A))
	copy(a, s.A)
	b := make([]float64, len(s.B))
	copy(b, s.B)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r*n+col]) > math.Abs(a[piv*n+col]) {
				piv = r
			}
		}
		if a[piv*n+col] == 0 {
			return nil, fmt.Errorf("jacobi: singular matrix")
		}
		if piv != col {
			for j := 0; j < n; j++ {
				a[col*n+j], a[piv*n+j] = a[piv*n+j], a[col*n+j]
			}
			b[col], b[piv] = b[piv], b[col]
		}
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] / a[col*n+col]
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a[r*n+j] -= f * a[col*n+j]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i*n+j] * x[j]
		}
		x[i] = sum / a[i*n+i]
	}
	return x, nil
}

// Residual returns max |Ax − b|.
func Residual(s *System, x []float64) float64 {
	var worst float64
	for i := 0; i < s.N; i++ {
		sum := -s.B[i]
		for j := 0; j < s.N; j++ {
			sum += s.A[i*s.N+j] * x[j]
		}
		if r := math.Abs(sum); r > worst {
			worst = r
		}
	}
	return worst
}
