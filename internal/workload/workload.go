// Package workload synthesizes the data processing workloads of the
// paper's evaluation (§6.1): TPC-H-like query DAGs at 2/10/50 GB scales
// and Alibaba-production-like DAGs with power-law durations, submitted
// with Poisson interarrival times.
//
// The generators are the substitution documented in DESIGN.md for the real
// TPC-H binaries and the Alibaba cluster-trace-v2018: they reproduce the
// published shape statistics — TPC-H mean single-executor durations of
// 180 s / 386 s / 1,261 s for the three scales, Alibaba DAGs averaging 66
// nodes with a power-law total-duration distribution whose scaled mean is
// ≈133 s — while remaining deterministic under a seed.
//
// All times are in the experiment's real-time seconds: one carbon-trace
// interval (60 s) corresponds to one grid-hour, per the paper's
// 1-real-minute = 1-grid-hour scaling.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"pcaps/internal/arrivals"
	"pcaps/internal/dag"
)

// TPC-H scale factors used in the paper, in GB.
const (
	Scale2GB  = 2
	Scale10GB = 10
	Scale50GB = 50
)

// tpchMeanWork maps scale → mean total work in executor-seconds (§6.1).
var tpchMeanWork = map[int]float64{
	Scale2GB:  180,
	Scale10GB: 386,
	Scale50GB: 1261,
}

// tpchTasksPerScan maps scale → partition count for scan stages.
var tpchTasksPerScan = map[int]int{
	Scale2GB:  8,
	Scale10GB: 16,
	Scale50GB: 32,
}

// NumTPCHQueries is the number of distinct query templates (TPC-H has 22).
const NumTPCHQueries = 22

// tpchWeight returns the deterministic per-query work multiplier. Weights
// span roughly [0.4, 2.4] and average 1 across the 22 templates, mimicking
// the heavy spread of real TPC-H query costs.
func tpchWeight(q int) float64 {
	const phi = 0.618033988749895
	f := math.Mod(float64(q)*phi, 1) // low-discrepancy in [0,1)
	w := 0.4 + 2.0*f
	return w / 1.3909 // empirical mean of the 22 raw weights
}

// TPCHQuery builds the DAG for query template q (0..21) at the given scale
// in GB, assigning the result job ID and arrival time 0. The shape is
// deterministic per (q, scale): a fixed number of scan roots feeding a
// binary join tree and a short aggregation chain, the canonical Spark plan
// shape for TPC-H SQL.
func TPCHQuery(q, scale, jobID int) (*dag.Job, error) {
	meanWork, ok := tpchMeanWork[scale]
	if !ok {
		return nil, fmt.Errorf("workload: unsupported TPC-H scale %dGB", scale)
	}
	q = ((q % NumTPCHQueries) + NumTPCHQueries) % NumTPCHQueries
	totalWork := meanWork * tpchWeight(q)
	// Shape parameters vary deterministically with the template index.
	nScans := 2 + q%4    // 2..5 table scans
	nAggs := 1 + (q/4)%3 // 1..3 aggregation stages
	scanTasks := tpchTasksPerScan[scale]

	b := dag.NewBuilder(jobID, fmt.Sprintf("tpch-q%02d-%dg", q+1, scale))
	// Work split: scans 50%, joins 35%, aggregations 15%.
	scanWork := totalWork * 0.50 / float64(nScans)
	var scans []int
	for i := 0; i < nScans; i++ {
		scans = append(scans, b.Stage(fmt.Sprintf("scan%d", i), scanTasks, scanWork/float64(scanTasks)))
	}
	// Binary join tree over the scans.
	nJoins := nScans - 1
	joinWork := totalWork * 0.35 / float64(nJoins)
	joinTasks := scanTasks / 2
	if joinTasks < 1 {
		joinTasks = 1
	}
	frontier := scans
	for len(frontier) > 1 {
		var next []int
		for i := 0; i+1 < len(frontier); i += 2 {
			j := b.Stage("join", joinTasks, joinWork/float64(joinTasks))
			b.Edge(frontier[i], j)
			b.Edge(frontier[i+1], j)
			next = append(next, j)
		}
		if len(frontier)%2 == 1 {
			next = append(next, frontier[len(frontier)-1])
		}
		frontier = next
	}
	// Aggregation chain with shrinking parallelism.
	aggWork := totalWork * 0.15 / float64(nAggs)
	prev := frontier[0]
	for i := 0; i < nAggs; i++ {
		tasks := joinTasks >> uint(i+1)
		if tasks < 1 {
			tasks = 1
		}
		a := b.Stage(fmt.Sprintf("agg%d", i), tasks, aggWork/float64(tasks))
		b.Edge(prev, a)
		prev = a
	}
	return b.Build()
}

// TPCH samples a uniformly random query template and scale from the three
// paper scales.
func TPCH(r *rand.Rand, jobID int) *dag.Job {
	scales := []int{Scale2GB, Scale10GB, Scale50GB}
	j, err := TPCHQuery(r.Intn(NumTPCHQueries), scales[r.Intn(len(scales))], jobID)
	if err != nil {
		panic(err) // unreachable: inputs drawn from valid sets
	}
	return j
}

// AlibabaMeanWork is the scaled mean total duration of an Alibaba DAG:
// 7,989 s ÷ 60 ≈ 133 s (§6.1).
const AlibabaMeanWork = 7989.0 / 60

// AlibabaMeanNodes is the published mean DAG size.
const AlibabaMeanNodes = 66

// Alibaba generates one production-like DAG: a layered graph with
// power-law total work (Pareto tail, many short DAGs and few long ones)
// and ~66 stages on average.
func Alibaba(r *rand.Rand, jobID int) *dag.Job {
	// Pareto(α, xm) with α = 1.8 has mean α·xm/(α−1); choose xm to hit
	// AlibabaMeanWork, and cap the tail at 40× the mean so a single
	// monster job cannot dominate a whole experiment.
	const alpha = 1.8
	xm := AlibabaMeanWork * (alpha - 1) / alpha
	work := xm / math.Pow(1-r.Float64(), 1/alpha)
	if max := 40 * AlibabaMeanWork; work > max {
		work = max
	}

	// Node count concentrates near the mean with geometric spread.
	n := 5 + int(r.ExpFloat64()*float64(AlibabaMeanNodes-5))
	if n > 300 {
		n = 300
	}

	// Layered topology: chains dominate, with fan-out/fan-in mixers.
	layers := 3 + r.Intn(10)
	if layers > n {
		layers = n
	}
	b := dag.NewBuilder(jobID, fmt.Sprintf("alibaba-%d", jobID))
	// Distribute stages across layers (each layer ≥ 1 stage).
	layerOf := make([]int, n)
	for i := 0; i < n; i++ {
		if i < layers {
			layerOf[i] = i
		} else {
			layerOf[i] = r.Intn(layers)
		}
	}
	// Per-stage work shares (Dirichlet-ish via exponential draws).
	shares := make([]float64, n)
	var shareSum float64
	for i := range shares {
		shares[i] = r.ExpFloat64() + 0.05
		shareSum += shares[i]
	}
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		stWork := work * shares[i] / shareSum
		tasks := 1 + r.Intn(8)
		ids[i] = b.Stage(fmt.Sprintf("s%d", i), tasks, stWork/float64(tasks))
	}
	// Edges: every stage in layer ℓ > 0 gets 1..3 parents from earlier
	// layers (biased to the previous layer, Alibaba DAGs are chain-heavy).
	byLayer := make([][]int, layers)
	for i, id := range ids {
		byLayer[layerOf[i]] = append(byLayer[layerOf[i]], id)
	}
	var earlier []int
	for l := 0; l < layers; l++ {
		if l > 0 && len(byLayer[l]) > 0 {
			prev := byLayer[l-1]
			for _, id := range byLayer[l] {
				nParents := 1 + r.Intn(3)
				seen := map[int]bool{}
				for p := 0; p < nParents; p++ {
					var parent int
					if len(prev) > 0 && r.Float64() < 0.7 {
						parent = prev[r.Intn(len(prev))]
					} else {
						parent = earlier[r.Intn(len(earlier))]
					}
					if !seen[parent] {
						seen[parent] = true
						b.Edge(parent, id)
					}
				}
			}
		}
		earlier = append(earlier, byLayer[l]...)
	}
	j, err := b.Build()
	if err != nil {
		panic(err) // unreachable: layered construction is acyclic
	}
	return j
}

// Mix selects the workload family of a generated batch.
type Mix int

const (
	// MixTPCH draws all jobs from the TPC-H templates.
	MixTPCH Mix = iota
	// MixAlibaba draws all jobs from the Alibaba generator.
	MixAlibaba
	// MixBoth alternates families 50/50, as in the prototype trials.
	MixBoth
)

// String implements fmt.Stringer.
func (m Mix) String() string {
	switch m {
	case MixTPCH:
		return "tpch"
	case MixAlibaba:
		return "alibaba"
	case MixBoth:
		return "both"
	}
	return fmt.Sprintf("mix(%d)", int(m))
}

// Class describes one heterogeneous job class: a named DAG family with
// an arrival weight and a work scale, so one batch can mix short
// interactive queries with heavy production DAGs.
type Class struct {
	// Name labels the class (job.Class, schedule CSV class column).
	Name string
	// Mix selects the class's DAG family.
	Mix Mix
	// Weight is the class's relative arrival share; classes are drawn
	// proportionally to their weights. Must be positive.
	Weight float64
	// WorkScale multiplies every stage duration of the class's jobs
	// (0 selects 1, the family's published scale).
	WorkScale float64
}

// GenConfig parameterizes Generate, the arrival-process-driven batch
// generator.
type GenConfig struct {
	// N is the number of jobs.
	N int
	// Arrivals is the open-loop arrival process; nil selects the
	// paper's Poisson at the 30-second mean.
	Arrivals arrivals.Process
	// Mix selects the workload family for homogeneous batches (Classes
	// empty).
	Mix Mix
	// Classes, when non-empty, makes the batch heterogeneous: each
	// arrival draws a class by weight (or takes the class the arrival
	// schedule names) and builds that class's DAG shape.
	Classes []Class
	// Seed makes the batch reproducible. Every stochastic choice —
	// DAG shapes, class picks, and the arrival process's draws — comes
	// from this one seeded stream.
	Seed int64
}

// fromMix draws one job of the given family.
func fromMix(mix Mix, r *rand.Rand, id int) *dag.Job {
	switch mix {
	case MixAlibaba:
		return Alibaba(r, id)
	case MixBoth:
		if id%2 == 0 {
			return TPCH(r, id)
		}
		return Alibaba(r, id)
	default:
		return TPCH(r, id)
	}
}

// Generate builds a batch of jobs whose arrival times come from an
// arrival process and whose shapes come from a workload mix or a
// heterogeneous class set. Job IDs are 0..N−1 in arrival order. It is
// the one batch constructor; the paper's workload shape (§6.1) is the
// default nil Arrivals, Poisson gaps with a 30-second mean.
//
// Generate is the materializing wrapper over Source: it drains a fresh
// source into a slice, so the batch is byte-for-byte what streaming
// consumers observe job by job.
//
// Errors are configuration errors: a negative N, a finite schedule
// shorter than N, a schedule class label naming no declared class, or a
// non-positive class weight.
func Generate(cfg GenConfig) ([]*dag.Job, error) {
	src, err := NewSource(cfg)
	if err != nil {
		return nil, err
	}
	jobs := make([]*dag.Job, 0, cfg.N)
	for {
		j, err := src.Next()
		if err != nil {
			return nil, err
		}
		if j == nil {
			return jobs, nil
		}
		jobs = append(jobs, j)
	}
}

// TotalWork sums the batch's work in executor-seconds.
func TotalWork(jobs []*dag.Job) float64 {
	var w float64
	for _, j := range jobs {
		w += j.TotalWork()
	}
	return w
}
