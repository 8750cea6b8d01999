package dag

import (
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestJSONRoundTrip(t *testing.T) {
	j := diamond(t)
	j.Arrival = 123.5
	data, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var got Job
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != j.ID || got.Name != j.Name || got.Arrival != j.Arrival {
		t.Fatalf("meta = %+v", got)
	}
	if len(got.Stages) != len(j.Stages) || got.TotalWork() != j.TotalWork() {
		t.Fatalf("structure lost: %d stages, %v work", len(got.Stages), got.TotalWork())
	}
	order1, _ := j.TopoOrder()
	order2, _ := got.TopoOrder()
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatalf("topo order changed: %v vs %v", order1, order2)
		}
	}
}

// TestLinkNormalizesParents pins that the wire constructor sorts and
// deduplicates parent lists and derives sorted children from them.
func TestLinkNormalizesParents(t *testing.T) {
	raw := `{"id":0,"stages":[
		{"num_tasks":1,"task_duration_sec":1},
		{"num_tasks":1,"task_duration_sec":1},
		{"num_tasks":1,"task_duration_sec":1,"parents":[1]},
		{"num_tasks":1,"task_duration_sec":1,"parents":[2,0,0]}]}`
	var j Job
	if err := json.Unmarshal([]byte(raw), &j); err != nil {
		t.Fatal(err)
	}
	wantParents := [][]int{nil, nil, {1}, {0, 2}}
	wantChildren := [][]int{{3}, {2}, {3}, nil}
	for i, s := range j.Stages {
		if !slices.Equal(s.Parents, wantParents[i]) || !slices.Equal(s.Children, wantChildren[i]) {
			t.Errorf("stage %d: parents %v children %v, want %v %v", i, s.Parents, s.Children, wantParents[i], wantChildren[i])
		}
	}
}

func TestUnmarshalRejectsBadGraphs(t *testing.T) {
	cases := []string{
		`{"id":0,"stages":[]}`,
		`{"id":0,"stages":[{"num_tasks":0,"task_duration_sec":1}]}`,
		`{"id":0,"stages":[{"num_tasks":1,"task_duration_sec":1,"parents":[7]}]}`,
		`not json`,
	}
	for _, raw := range cases {
		var j Job
		if err := json.Unmarshal([]byte(raw), &j); err == nil {
			t.Fatalf("accepted %q", raw)
		}
	}
}

// TestUnmarshalRejectsUnknownFields pins strict decoding at both levels
// of the job object: a misspelled "parents" must not decode as a root
// stage with its edge silently dropped.
func TestUnmarshalRejectsUnknownFields(t *testing.T) {
	for raw, field := range map[string]string{
		`{"id":0,"stages":[{"num_tasks":1,"task_duration_sec":1},{"num_tasks":1,"task_duration_sec":1,"parent":[0]}]}`: "parent",
		`{"id":0,"arrival":5,"stages":[{"num_tasks":1,"task_duration_sec":1}]}`:                                        "arrival",
	} {
		var j Job
		err := json.Unmarshal([]byte(raw), &j)
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+field+`"`) {
			t.Errorf("%s: err = %v, want an unknown-field error naming %q", raw, err, field)
		}
	}
}

func TestQuickJSONRoundTripPreservesWork(t *testing.T) {
	f := func(seed int64) bool {
		j := randomJob(rand.New(rand.NewSource(seed)))
		data, err := json.Marshal(j)
		if err != nil {
			return false
		}
		var got Job
		if err := json.Unmarshal(data, &got); err != nil {
			return false
		}
		return got.Validate() == nil &&
			got.TotalWork() == j.TotalWork() &&
			got.CriticalPathLength() == j.CriticalPathLength()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
