// Package kmeans implements K-means clustering (paper §5.1) as an
// iMapReduce job with one-to-all broadcast, optionally with a map-side
// combiner (§5.1.3) and an auxiliary convergence-detection phase (§5.3),
// plus the baseline MapReduce loop and a sequential Lloyd's reference.
//
// Static: the point coordinates. State: the k cluster centroids, which
// every map task needs — hence the broadcast mapping and synchronous map
// execution.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"imapreduce/internal/core"
	"imapreduce/internal/dfs"
	"imapreduce/internal/kv"
	"imapreduce/internal/mapreduce"
)

// Point is one observation (or one centroid coordinate).
type Point []float64

// Bytes implements kv.Sized.
func (p Point) Bytes() int { return 8*len(p) + 4 }

// PartialSum is the combiner's aggregate: a vector sum with a count.
type PartialSum struct {
	Vec   []float64
	Count int64
}

// Bytes implements kv.Sized.
func (s PartialSum) Bytes() int { return 8*len(s.Vec) + 12 }

func init() {
	kv.Register(func(f *kv.Fields, p *Point) { f.F64s((*[]float64)(p)) })
	kv.Register(func(f *kv.Fields, s *PartialSum) { f.F64s(&s.Vec); f.Varint(&s.Count) })
}

// PointOps is the kv.Ops for (id → Point) records.
func PointOps() kv.Ops { return kv.OpsFor[int64, Point](Point.Bytes) }

// DataConfig drives the synthetic Last.fm-like dataset: Users points in
// Dim dimensions drawn around K well-separated cluster centers — the
// stand-in for the paper's listening-history feature vectors.
type DataConfig struct {
	Users int
	Dim   int
	K     int
	Seed  int64
	// Spread is the intra-cluster standard deviation relative to the
	// inter-center distance (default 0.15).
	Spread float64
}

// Generate produces the points and the initial centroids (the true
// centers perturbed, so no cluster starts empty).
func Generate(cfg DataConfig) (points []kv.Pair, centroids []kv.Pair) {
	if cfg.Spread <= 0 {
		cfg.Spread = 0.15
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := make([]Point, cfg.K)
	for c := range centers {
		centers[c] = make(Point, cfg.Dim)
		for d := range centers[c] {
			centers[c][d] = rng.Float64() * 100
		}
	}
	points = make([]kv.Pair, cfg.Users)
	for i := range points {
		c := centers[i%cfg.K]
		p := make(Point, cfg.Dim)
		for d := range p {
			p[d] = c[d] + rng.NormFloat64()*cfg.Spread*10
		}
		points[i] = kv.Pair{Key: int64(i), Value: p}
	}
	centroids = make([]kv.Pair, cfg.K)
	for c := range centroids {
		p := make(Point, cfg.Dim)
		for d := range p {
			p[d] = centers[c][d] + rng.NormFloat64()*cfg.Spread*5
		}
		centroids[c] = kv.Pair{Key: int64(c), Value: p}
	}
	return points, centroids
}

// RandomInitCentroids picks k distinct random points as the starting
// centroids — the classic Lloyd's initialization. Unlike Generate's
// near-center initialization it can place several centroids in one true
// cluster, so convergence takes visibly many iterations.
func RandomInitCentroids(points []kv.Pair, k int, seed int64) []kv.Pair {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(points))[:k]
	out := make([]kv.Pair, k)
	for c, i := range idx {
		src := points[i].Value.(Point)
		p := make(Point, len(src))
		copy(p, src)
		out[c] = kv.Pair{Key: int64(c), Value: p}
	}
	return out
}

// WriteInputs stores points (static) and initial centroids (state).
func WriteInputs(fs *dfs.DFS, at string, points, centroids []kv.Pair, staticPath, statePath string) error {
	if err := fs.WriteFile(staticPath, at, points, PointOps()); err != nil {
		return err
	}
	return fs.WriteFile(statePath, at, centroids, PointOps())
}

// Nearest returns the centroid key closest to p (lowest key wins ties;
// the centroid list must be key-sorted).
func Nearest(centroids []kv.Pair, p Point) int64 {
	best, bestD := int64(-1), math.MaxFloat64
	for _, c := range centroids {
		if d := sqDist(c.Value.(Point), p); d < bestD {
			best, bestD = c.Key.(int64), d
		}
	}
	return best
}

func sqDist(a, b Point) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// mapFn assigns this task's points to the nearest broadcast centroid
// (paper §5.1.1 Map).
func mapFn(key, state, static any, emit kv.Emit) error {
	centroids := state.([]kv.Pair)
	p := static.(Point)
	emit(Nearest(centroids, p), p)
	return nil
}

// reduceFn averages the members of a cluster (paper §5.1.1 Reduce); it
// accepts raw points and combiner partial sums.
func reduceFn(key any, values []any) (any, error) {
	var vec []float64
	var count int64
	add := func(v []float64, c int64) {
		if vec == nil {
			vec = make([]float64, len(v))
		}
		for i := range v {
			vec[i] += v[i]
		}
		count += c
	}
	for _, v := range values {
		switch x := v.(type) {
		case Point:
			add(x, 1)
		case PartialSum:
			add(x.Vec, x.Count)
		default:
			return nil, fmt.Errorf("kmeans: unexpected reduce value %T", v)
		}
	}
	out := make(Point, len(vec))
	for i := range vec {
		out[i] = vec[i] / float64(count)
	}
	return out, nil
}

// combineFn is the map-side partial aggregation (§5.1.3).
func combineFn(key any, values []any) (any, error) {
	var sum PartialSum
	for _, v := range values {
		switch x := v.(type) {
		case Point:
			if sum.Vec == nil {
				sum.Vec = make([]float64, len(x))
			}
			for i := range x {
				sum.Vec[i] += x[i]
			}
			sum.Count++
		case PartialSum:
			if sum.Vec == nil {
				sum.Vec = make([]float64, len(x.Vec))
			}
			for i := range x.Vec {
				sum.Vec[i] += x.Vec[i]
			}
			sum.Count += x.Count
		}
	}
	return sum, nil
}

// DistanceFn is the Euclidean centroid movement.
func DistanceFn(key, prev, curr any) float64 {
	return math.Sqrt(sqDist(prev.(Point), curr.(Point)))
}

// IMRConfig parameterizes the iMapReduce job.
type IMRConfig struct {
	Name          string
	StaticPath    string // points
	StatePath     string // initial centroids
	OutputPath    string
	MaxIter       int
	DistThreshold float64
	NumTasks      int
	UseCombiner   bool
	Checkpoint    int
	// MoveThreshold, when > 0, attaches the auxiliary convergence-
	// detection phase (§5.3): terminate when fewer than this many
	// points changed cluster.
	MoveThreshold int64
}

// IMRJob builds the iMapReduce K-means job: one-to-all mapping with
// synchronous map execution, as §5.1.2 requires.
func IMRJob(cfg IMRConfig) *core.Job {
	job := &core.Job{
		Name:            cfg.Name,
		StatePath:       cfg.StatePath,
		StaticPath:      cfg.StaticPath,
		OutputPath:      cfg.OutputPath,
		Mapping:         core.OneToAll,
		SyncMap:         true,
		Map:             mapFn,
		Reduce:          reduceFn,
		Distance:        DistanceFn,
		MaxIter:         cfg.MaxIter,
		DistThreshold:   cfg.DistThreshold,
		NumTasks:        cfg.NumTasks,
		CheckpointEvery: cfg.Checkpoint,
		Ops:             PointOps(),
	}
	if cfg.UseCombiner {
		job.Combine = combineFn
	}
	if cfg.MoveThreshold > 0 {
		var assignments sync.Map // nid → cid, kept across iterations
		aux := &core.Job{
			Name:       cfg.Name + "-conv",
			StaticPath: cfg.StaticPath,
			Mapping:    core.OneToAll,
			SyncMap:    true,
			Map: func(key, state, static any, emit kv.Emit) error {
				cid := Nearest(state.([]kv.Pair), static.(Point))
				prev, seen := assignments.Load(key)
				assignments.Store(key, cid)
				moved := int64(1)
				if seen && prev.(int64) == cid {
					moved = 0
				}
				emit(int64(0), moved)
				return nil
			},
			Reduce: func(key any, values []any) (any, error) {
				var moved int64
				for _, v := range values {
					moved += v.(int64)
				}
				return moved, nil
			},
			Ops: kv.OpsFor[int64, int64](nil),
		}
		job.AddAuxiliary(aux)
		job.AuxDecide = func(iter int, outputs []kv.Pair) bool {
			if iter < 2 { // first assignment round always "moves" everyone
				return false
			}
			var moved int64
			for _, p := range outputs {
				moved += p.Value.(int64)
			}
			return moved < cfg.MoveThreshold
		}
	}
	return job
}

// MRConfig parameterizes the baseline loop.
type MRConfig struct {
	Name        string
	PointsPath  string
	WorkDir     string
	Centroids   []kv.Pair // initial centroids
	NumReduce   int
	MaxIter     int
	UseCombiner bool
	// MoveThreshold > 0 runs the extra per-iteration convergence-check
	// MapReduce job (Fig. 20's baseline).
	MoveThreshold int64
}

// MRIterStats captures one baseline iteration.
type MRIterStats struct {
	Iteration            int
	JobWall, JobInit     int64 // nanoseconds
	CheckWall, CheckInit int64
}

// MRResult is the baseline outcome.
type MRResult struct {
	Iterations int
	Centroids  []kv.Pair
	Stats      []MRIterStats
	Converged  bool
}

// RunMR executes the baseline: every iteration reloads and reshuffles
// the full point set through a fresh MapReduce job; the centroids travel
// through the job closure the way Hadoop ships them in the distributed
// cache.
func RunMR(e *mapreduce.Engine, cfg MRConfig) (*MRResult, error) {
	centroids := append([]kv.Pair(nil), cfg.Centroids...)
	PointOps().SortPairs(centroids)
	res := &MRResult{}
	prevAssign := map[int64]int64{}
	for i := 1; cfg.MaxIter <= 0 || i <= cfg.MaxIter; i++ {
		cur := centroids
		job := &mapreduce.Job{
			Name:   fmt.Sprintf("%s-iter-%03d", cfg.Name, i),
			Input:  []string{cfg.PointsPath},
			Output: fmt.Sprintf("%s/iter-%03d", cfg.WorkDir, i),
			Map: func(key, value any, emit kv.Emit) error {
				emit(Nearest(cur, value.(Point)), value)
				return nil
			},
			Reduce: func(key any, values []any, emit kv.Emit) error {
				v, err := reduceFn(key, values)
				if err != nil {
					return err
				}
				emit(key, v)
				return nil
			},
			NumReduce: cfg.NumReduce,
			Ops:       PointOps(),
		}
		if cfg.UseCombiner {
			job.Combine = func(key any, values []any, emit kv.Emit) error {
				v, err := combineFn(key, values)
				if err != nil {
					return err
				}
				emit(key, v)
				return nil
			}
		}
		jr, err := e.Submit(job)
		if err != nil {
			return nil, err
		}
		next, err := readCentroids(e, job.Output)
		if err != nil {
			return nil, err
		}
		st := MRIterStats{Iteration: i, JobWall: int64(jr.Wall), JobInit: int64(jr.Init)}

		converged := false
		if cfg.MoveThreshold > 0 {
			moved, cw, err := runMoveCheck(e, cfg, next, prevAssign, i)
			if err != nil {
				return nil, err
			}
			st.CheckWall, st.CheckInit = int64(cw.Wall), int64(cw.Init)
			if i >= 2 && moved < cfg.MoveThreshold {
				converged = true
			}
		}
		res.Stats = append(res.Stats, st)
		res.Iterations = i
		centroids = next
		if converged {
			res.Converged = true
			break
		}
	}
	res.Centroids = centroids
	return res, nil
}

// runMoveCheck is the baseline's separate convergence-detection job: it
// re-assigns every point under the new centroids and counts moves
// against the driver-kept previous assignment.
func runMoveCheck(e *mapreduce.Engine, cfg MRConfig, centroids []kv.Pair, prevAssign map[int64]int64, iter int) (int64, *mapreduce.JobResult, error) {
	var mu sync.Mutex
	newAssign := map[int64]int64{}
	job := &mapreduce.Job{
		Name:   fmt.Sprintf("%s-check-%03d", cfg.Name, iter),
		Input:  []string{cfg.PointsPath},
		Output: fmt.Sprintf("%s/check-%03d", cfg.WorkDir, iter),
		Map: func(key, value any, emit kv.Emit) error {
			cid := Nearest(centroids, value.(Point))
			nid := key.(int64)
			mu.Lock()
			newAssign[nid] = cid
			prev, seen := prevAssign[nid]
			mu.Unlock()
			moved := int64(1)
			if seen && prev == cid {
				moved = 0
			}
			emit(int64(0), moved)
			return nil
		},
		Reduce: func(key any, values []any, emit kv.Emit) error {
			var moved int64
			for _, v := range values {
				moved += v.(int64)
			}
			emit(key, moved)
			return nil
		},
		NumReduce: 1,
		Ops:       kv.OpsFor[int64, int64](nil),
	}
	jr, err := e.Submit(job)
	if err != nil {
		return 0, nil, err
	}
	var moved int64
	for _, part := range e.FS().List(job.Output + "/") {
		recs, err := e.FS().ReadFile(part, e.Spec().IDs()[0])
		if err != nil {
			return 0, nil, err
		}
		for _, r := range recs {
			moved += r.Value.(int64)
		}
		e.FS().Delete(part)
	}
	for k, v := range newAssign {
		prevAssign[k] = v
	}
	return moved, jr, nil
}

func readCentroids(e *mapreduce.Engine, dir string) ([]kv.Pair, error) {
	var out []kv.Pair
	for _, part := range e.FS().List(dir + "/") {
		recs, err := e.FS().ReadFile(part, e.Spec().IDs()[0])
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	PointOps().SortPairs(out)
	return out, nil
}

// Reference runs iters rounds of sequential Lloyd's algorithm from the
// given centroids.
func Reference(points, centroids []kv.Pair, iters int) []kv.Pair {
	cur := append([]kv.Pair(nil), centroids...)
	PointOps().SortPairs(cur)
	for k := 0; k < iters; k++ {
		sums := map[int64][]float64{}
		counts := map[int64]int64{}
		for _, pp := range points {
			p := pp.Value.(Point)
			cid := Nearest(cur, p)
			if sums[cid] == nil {
				sums[cid] = make([]float64, len(p))
			}
			for i := range p {
				sums[cid][i] += p[i]
			}
			counts[cid]++
		}
		next := make([]kv.Pair, 0, len(sums))
		for _, c := range cur {
			cid := c.Key.(int64)
			if counts[cid] == 0 {
				continue // cluster emptied: key drops, as in the engines
			}
			p := make(Point, len(sums[cid]))
			for i := range p {
				p[i] = sums[cid][i] / float64(counts[cid])
			}
			next = append(next, kv.Pair{Key: cid, Value: p})
		}
		cur = next
	}
	return cur
}
