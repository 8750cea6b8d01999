// Package dag models precedence-constrained data processing jobs.
//
// A Job is a directed acyclic graph whose nodes are Stages. Following the
// Spark model used by the paper (§2.2), each stage encapsulates a set of
// tasks that are parallelizable over partitions of input data, and an edge
// u → v means stage v cannot start until stage u has completed. The package
// provides construction, validation, topological utilities, and the
// critical-path computations the schedulers rely on.
//
// Only Job.Link writes a job's edge lists: Builder.Build and every JSON
// decoder construct a job through it. Everything else, Validate
// included, only reads a job, so one job may serve any number of runs at
// once.
package dag

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Stage is one node of a job DAG: a set of identical, independent tasks
// that may run in parallel once every parent stage has finished.
type Stage struct {
	// ID is the stage's index within its job. Stage IDs are dense:
	// a job with n stages uses IDs 0..n-1.
	ID int
	// Name is an optional human-readable label ("map", "shuffle-3", ...).
	Name string
	// NumTasks is the number of tasks in the stage. Must be ≥ 1.
	NumTasks int
	// TaskDuration is the mean duration of one task in seconds of
	// experiment time on one executor. Must be > 0.
	TaskDuration float64
	// Parents and Children are stage IDs of direct predecessors and
	// successors, strictly ascending: Job.Link sorts and deduplicates the
	// parents and rebuilds the children from them, and Validate rejects
	// a list that is not.
	Parents  []int
	Children []int
}

// Work returns the stage's total work in executor-seconds.
func (s *Stage) Work() float64 { return float64(s.NumTasks) * s.TaskDuration }

// Job is a directed acyclic graph of stages plus arrival metadata.
type Job struct {
	// ID uniquely identifies the job within an experiment.
	ID int
	// Name is an optional label ("tpch-q17-10g", "alibaba-774", ...).
	Name string
	// Stages holds the job's stages indexed by Stage.ID.
	Stages []*Stage
	// Arrival is the job's submission time in seconds of experiment time.
	Arrival float64
	// Class optionally names the workload class the job was drawn from
	// (heterogeneous batches, internal/arrivals); "" for homogeneous
	// batches.
	Class string
}

// Errors returned by Validate.
var (
	ErrEmptyJob      = errors.New("dag: job has no stages")
	ErrCyclic        = errors.New("dag: job graph contains a cycle")
	ErrBadStageID    = errors.New("dag: stage IDs must be dense 0..n-1")
	ErrBadEdge       = errors.New("dag: edge references unknown stage")
	ErrUnsortedEdges = errors.New("dag: edge list is not strictly ascending")
	ErrBadTasks      = errors.New("dag: stage must have at least one task")
	ErrBadDuration   = errors.New("dag: task duration must be positive")
	ErrAsymmetricDAG = errors.New("dag: parent/child lists are inconsistent")
)

// Validate checks structural invariants: dense IDs, positive task counts
// and durations, strictly ascending edge lists referencing valid stages,
// parent/child symmetry, and acyclicity. It only reads the job.
func (j *Job) Validate() error {
	if len(j.Stages) == 0 {
		return ErrEmptyJob
	}
	n := len(j.Stages)
	for i, s := range j.Stages {
		if s == nil || s.ID != i {
			return fmt.Errorf("%w: stage %d", ErrBadStageID, i)
		}
		if s.NumTasks < 1 {
			return fmt.Errorf("%w: stage %d", ErrBadTasks, i)
		}
		if s.TaskDuration <= 0 {
			return fmt.Errorf("%w: stage %d", ErrBadDuration, i)
		}
		if k, err := checkEdges(s.Parents, n); err != nil {
			return fmt.Errorf("%w: stage %d parent %d", err, i, s.Parents[k])
		}
		if k, err := checkEdges(s.Children, n); err != nil {
			return fmt.Errorf("%w: stage %d child %d", err, i, s.Children[k])
		}
	}
	for _, s := range j.Stages {
		for _, p := range s.Parents {
			if _, ok := slices.BinarySearch(j.Stages[p].Children, s.ID); !ok {
				return fmt.Errorf("%w: %d→%d", ErrAsymmetricDAG, p, s.ID)
			}
		}
		for _, c := range s.Children {
			if _, ok := slices.BinarySearch(j.Stages[c].Parents, s.ID); !ok {
				return fmt.Errorf("%w: %d→%d", ErrAsymmetricDAG, s.ID, c)
			}
		}
	}
	if _, err := j.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// checkEdges checks that an edge list of a job with n stages names only
// stages of the job, in strictly ascending order, and returns the index
// of the first entry that breaks either rule.
func checkEdges(ids []int, n int) (int, error) {
	for k, v := range ids {
		if v < 0 || v >= n {
			return k, ErrBadEdge
		}
		if k > 0 && v <= ids[k-1] {
			return k, ErrUnsortedEdges
		}
	}
	return 0, nil
}

// normalize sorts and deduplicates an edge list in place; only Link
// calls it, on lists the job owns.
func normalize(ids []int) []int {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// TopoOrder returns the stage IDs in a topological order (Kahn's
// algorithm, smallest-ID-first for determinism) or ErrCyclic.
func (j *Job) TopoOrder() ([]int, error) {
	n := len(j.Stages)
	indeg := make([]int, n)
	for _, s := range j.Stages {
		indeg[s.ID] = len(s.Parents)
	}
	// ready is kept sorted ascending; n is small (tens of stages) so a
	// linear-insertion "priority queue" is simpler and fast enough.
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, c := range j.Stages[v].Children {
			indeg[c]--
			if indeg[c] == 0 {
				ready = insertSorted(ready, c)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCyclic
	}
	return order, nil
}

func insertSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// Roots returns the IDs of stages with no parents.
func (j *Job) Roots() []int {
	var out []int
	for _, s := range j.Stages {
		if len(s.Parents) == 0 {
			out = append(out, s.ID)
		}
	}
	return out
}

// Leaves returns the IDs of stages with no children.
func (j *Job) Leaves() []int {
	var out []int
	for _, s := range j.Stages {
		if len(s.Children) == 0 {
			out = append(out, s.ID)
		}
	}
	return out
}

// TotalWork returns the job's total work in executor-seconds, i.e. the
// optimal single-machine makespan OPT₁(J) used by the paper's analysis.
func (j *Job) TotalWork() float64 {
	var w float64
	for _, s := range j.Stages {
		w += s.Work()
	}
	return w
}

// CriticalPathDown returns, for every stage, the length in seconds of the
// longest chain of serial work starting at that stage and ending at a leaf,
// inclusive of the stage itself. A stage's serial contribution is
// TaskDuration (tasks are parallelizable, so a stage contributes one task
// "wave" under unlimited executors). This is the downstream bottleneck
// pressure PCAPS-style schedulers prioritize.
func (j *Job) CriticalPathDown() []float64 {
	order, err := j.TopoOrder()
	if err != nil {
		return nil
	}
	cp := make([]float64, len(j.Stages))
	for i := len(order) - 1; i >= 0; i-- {
		s := j.Stages[order[i]]
		var best float64
		for _, c := range s.Children {
			if cp[c] > best {
				best = cp[c]
			}
		}
		cp[s.ID] = s.TaskDuration + best
	}
	return cp
}

// CriticalPathWorkDown is like CriticalPathDown but measures total
// *work* (NumTasks × TaskDuration) along the heaviest downstream chain,
// a proxy for how much cluster time is blocked behind each stage.
func (j *Job) CriticalPathWorkDown() []float64 {
	order, err := j.TopoOrder()
	if err != nil {
		return nil
	}
	cp := make([]float64, len(j.Stages))
	for i := len(order) - 1; i >= 0; i-- {
		s := j.Stages[order[i]]
		var best float64
		for _, c := range s.Children {
			if cp[c] > best {
				best = cp[c]
			}
		}
		cp[s.ID] = s.Work() + best
	}
	return cp
}

// CriticalPathLength returns the length in seconds of the job's longest
// chain (the makespan lower bound under unlimited executors).
func (j *Job) CriticalPathLength() float64 {
	var best float64
	for _, v := range j.CriticalPathDown() {
		if v > best {
			best = v
		}
	}
	return best
}

// Builder incrementally assembles a valid Job. It exists so generators and
// tests can declare DAG shape without hand-maintaining symmetric edge lists.
type Builder struct {
	job *Job
}

// NewBuilder returns a Builder for a job with the given ID and name.
func NewBuilder(id int, name string) *Builder {
	return &Builder{job: &Job{ID: id, Name: name}}
}

// Stage appends a stage and returns its ID.
func (b *Builder) Stage(name string, numTasks int, taskDuration float64) int {
	id := len(b.job.Stages)
	b.job.Stages = append(b.job.Stages, &Stage{
		ID: id, Name: name, NumTasks: numTasks, TaskDuration: taskDuration,
	})
	return id
}

// Edge adds a precedence edge parent → child. Only the child's parent
// list records it; Build derives the children.
func (b *Builder) Edge(parent, child int) *Builder {
	b.job.Stages[child].Parents = append(b.job.Stages[child].Parents, parent)
	return b
}

// Chain adds edges forming a linear chain through the given stage IDs.
func (b *Builder) Chain(ids ...int) *Builder {
	for i := 1; i < len(ids); i++ {
		b.Edge(ids[i-1], ids[i])
	}
	return b
}

// Build completes the job through Link, which sorts and deduplicates the
// parent edges, derives the children and validates, and returns it. A
// parent outside the job is ErrBadEdge.
func (b *Builder) Build() (*Job, error) {
	if err := b.job.Link(); err != nil {
		return nil, err
	}
	return b.job, nil
}

// MustBuild is Build that panics on error; for tests and literals.
func (b *Builder) MustBuild() *Job {
	j, err := b.Build()
	if err != nil {
		panic(err)
	}
	return j
}
