package dag

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// diamond returns the classic 4-stage diamond DAG: 0 → {1,2} → 3.
func diamond(t testing.TB) *Job {
	t.Helper()
	b := NewBuilder(0, "diamond")
	s0 := b.Stage("src", 4, 10)
	s1 := b.Stage("left", 2, 20)
	s2 := b.Stage("right", 8, 5)
	s3 := b.Stage("sink", 1, 30)
	b.Edge(s0, s1).Edge(s0, s2).Edge(s1, s3).Edge(s2, s3)
	return b.MustBuild()
}

func TestValidateDiamond(t *testing.T) {
	j := diamond(t)
	if err := j.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		job  *Job
		want error
	}{
		{"empty", &Job{}, ErrEmptyJob},
		{"zero tasks", &Job{Stages: []*Stage{{ID: 0, NumTasks: 0, TaskDuration: 1}}}, ErrBadTasks},
		{"zero duration", &Job{Stages: []*Stage{{ID: 0, NumTasks: 1, TaskDuration: 0}}}, ErrBadDuration},
		{"negative duration", &Job{Stages: []*Stage{{ID: 0, NumTasks: 1, TaskDuration: -2}}}, ErrBadDuration},
		{"sparse ids", &Job{Stages: []*Stage{{ID: 1, NumTasks: 1, TaskDuration: 1}}}, ErrBadStageID},
		{
			"edge out of range",
			&Job{Stages: []*Stage{{ID: 0, NumTasks: 1, TaskDuration: 1, Children: []int{5}}}},
			ErrBadEdge,
		},
		{
			"asymmetric edge",
			&Job{Stages: []*Stage{
				{ID: 0, NumTasks: 1, TaskDuration: 1, Children: []int{1}},
				{ID: 1, NumTasks: 1, TaskDuration: 1},
			}},
			ErrAsymmetricDAG,
		},
		{
			"self cycle",
			&Job{Stages: []*Stage{
				{ID: 0, NumTasks: 1, TaskDuration: 1, Parents: []int{0}, Children: []int{0}},
			}},
			ErrCyclic,
		},
		{
			"two cycle",
			&Job{Stages: []*Stage{
				{ID: 0, NumTasks: 1, TaskDuration: 1, Parents: []int{1}, Children: []int{1}},
				{ID: 1, NumTasks: 1, TaskDuration: 1, Parents: []int{0}, Children: []int{0}},
			}},
			ErrCyclic,
		},
		{
			"duplicate child",
			&Job{Stages: []*Stage{
				{ID: 0, NumTasks: 1, TaskDuration: 1, Children: []int{1, 1}},
				{ID: 1, NumTasks: 1, TaskDuration: 1, Parents: []int{0}},
			}},
			ErrUnsortedEdges,
		},
		{
			"duplicate parent",
			&Job{Stages: []*Stage{
				{ID: 0, NumTasks: 1, TaskDuration: 1, Children: []int{1}},
				{ID: 1, NumTasks: 1, TaskDuration: 1, Parents: []int{0, 0}},
			}},
			ErrUnsortedEdges,
		},
		{
			"unsorted children",
			&Job{Stages: []*Stage{
				{ID: 0, NumTasks: 1, TaskDuration: 1, Children: []int{2, 1}},
				{ID: 1, NumTasks: 1, TaskDuration: 1, Parents: []int{0}},
				{ID: 2, NumTasks: 1, TaskDuration: 1, Parents: []int{0}},
			}},
			ErrUnsortedEdges,
		},
		{
			"unsorted parents",
			&Job{Stages: []*Stage{
				{ID: 0, NumTasks: 1, TaskDuration: 1, Children: []int{2}},
				{ID: 1, NumTasks: 1, TaskDuration: 1, Children: []int{2}},
				{ID: 2, NumTasks: 1, TaskDuration: 1, Parents: []int{1, 0}},
			}},
			ErrUnsortedEdges,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var before [][]int
			for _, s := range tt.job.Stages {
				before = append(before, slices.Clone(s.Parents), slices.Clone(s.Children))
			}
			if err := tt.job.Validate(); !errors.Is(err, tt.want) {
				t.Fatalf("Validate = %v, want %v", err, tt.want)
			}
			// Validate only reads: every edge list is as it was.
			for i, s := range tt.job.Stages {
				if !slices.Equal(s.Parents, before[2*i]) || !slices.Equal(s.Children, before[2*i+1]) {
					t.Fatalf("stage %d edges became %v %v, were %v %v", i, s.Parents, s.Children, before[2*i], before[2*i+1])
				}
			}
		})
	}
}

func TestTopoOrderDiamond(t *testing.T) {
	j := diamond(t)
	order, err := j.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, s := range j.Stages {
		for _, c := range s.Children {
			if pos[s.ID] >= pos[c] {
				t.Fatalf("topo order violates edge %d→%d: %v", s.ID, c, order)
			}
		}
	}
	if order[0] != 0 || order[len(order)-1] != 3 {
		t.Fatalf("unexpected order %v", order)
	}
}

func TestRootsLeaves(t *testing.T) {
	j := diamond(t)
	if got := j.Roots(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Roots = %v", got)
	}
	if got := j.Leaves(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Leaves = %v", got)
	}
}

func TestTotalWork(t *testing.T) {
	j := diamond(t)
	want := 4*10.0 + 2*20.0 + 8*5.0 + 1*30.0
	if got := j.TotalWork(); got != want {
		t.Fatalf("TotalWork = %v, want %v", got, want)
	}
}

func TestCriticalPathDown(t *testing.T) {
	j := diamond(t)
	cp := j.CriticalPathDown()
	// Stage 3: 30. Stage 1: 20+30=50. Stage 2: 5+30=35. Stage 0: 10+50=60.
	want := []float64{60, 50, 35, 30}
	for i, w := range want {
		if cp[i] != w {
			t.Fatalf("cp[%d] = %v, want %v (all %v)", i, cp[i], w, cp)
		}
	}
	if got := j.CriticalPathLength(); got != 60 {
		t.Fatalf("CriticalPathLength = %v, want 60", got)
	}
}

func TestCriticalPathWorkDown(t *testing.T) {
	j := diamond(t)
	cp := j.CriticalPathWorkDown()
	// Stage 3: 30. Stage 1: 40+30=70. Stage 2: 40+30=70. Stage 0: 40+70=110.
	want := []float64{110, 70, 70, 30}
	for i, w := range want {
		if cp[i] != w {
			t.Fatalf("cpw[%d] = %v, want %v (all %v)", i, cp[i], w, cp)
		}
	}
}

// TestBuildNormalizesEdges pins that Build sorts and deduplicates: an
// edge given twice or out of order is built once, in ascending order.
func TestBuildNormalizesEdges(t *testing.T) {
	b := NewBuilder(0, "dups")
	a, m, z := b.Stage("a", 1, 1), b.Stage("m", 1, 1), b.Stage("z", 1, 1)
	b.Edge(a, z).Edge(m, z).Edge(a, m).Edge(a, m)
	j := b.MustBuild()
	wantParents := [][]int{nil, {0}, {0, 1}}
	wantChildren := [][]int{{1, 2}, {2}, nil}
	for i, s := range j.Stages {
		if !slices.Equal(s.Parents, wantParents[i]) || !slices.Equal(s.Children, wantChildren[i]) {
			t.Errorf("stage %d: parents %v children %v, want %v %v", i, s.Parents, s.Children, wantParents[i], wantChildren[i])
		}
	}
}

func TestChainBuilder(t *testing.T) {
	b := NewBuilder(7, "chain")
	ids := []int{b.Stage("a", 1, 1), b.Stage("b", 1, 1), b.Stage("c", 1, 1)}
	b.Chain(ids...)
	j := b.MustBuild()
	order, err := j.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if order[i] != id {
			t.Fatalf("order = %v", order)
		}
	}
	if got := j.CriticalPathLength(); got != 3 {
		t.Fatalf("chain critical path = %v", got)
	}
}

// randomJob builds a random layered DAG; edges only go from lower to higher
// IDs, so it is acyclic by construction.
func randomJob(r *rand.Rand) *Job {
	n := 1 + r.Intn(20)
	b := NewBuilder(0, "rand")
	for i := 0; i < n; i++ {
		b.Stage("", 1+r.Intn(10), 0.5+r.Float64()*10)
	}
	for c := 1; c < n; c++ {
		for p := 0; p < c; p++ {
			if r.Float64() < 0.25 {
				b.Edge(p, c)
			}
		}
	}
	return b.MustBuild()
}

func TestQuickTopoOrderRespectsEdges(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		j := randomJob(rand.New(rand.NewSource(seed)))
		order, err := j.TopoOrder()
		if err != nil || len(order) != len(j.Stages) {
			return false
		}
		pos := make([]int, len(j.Stages))
		for i, id := range order {
			pos[id] = i
		}
		for _, s := range j.Stages {
			for _, c := range s.Children {
				if pos[s.ID] >= pos[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCriticalPathBounds(t *testing.T) {
	f := func(seed int64) bool {
		j := randomJob(rand.New(rand.NewSource(seed)))
		cp := j.CriticalPathDown()
		// Critical path of each stage is at least its own duration and at
		// least every child's critical path.
		for _, s := range j.Stages {
			if cp[s.ID] < s.TaskDuration {
				return false
			}
			for _, c := range s.Children {
				if cp[s.ID] < cp[c] {
					return false
				}
			}
		}
		// Global critical path never exceeds total work.
		return j.CriticalPathLength() <= j.TotalWork()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTopoOrder(b *testing.B) {
	j := randomJob(rand.New(rand.NewSource(42)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := j.TopoOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCriticalPath(b *testing.B) {
	j := randomJob(rand.New(rand.NewSource(42)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.CriticalPathDown()
	}
}
