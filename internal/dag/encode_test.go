package dag

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteDOT(t *testing.T) {
	j := diamond(t)
	var b strings.Builder
	if err := j.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	for _, needle := range []string{
		"digraph", "rankdir=LR", "n0 -> n1", "n0 -> n2", "n1 -> n3", "n2 -> n3",
		"4×10.0s", "lightcoral",
	} {
		if !strings.Contains(dot, needle) {
			t.Fatalf("DOT missing %q:\n%s", needle, dot)
		}
	}
	// The diamond's critical chain is 0 → 1 → 3 (left branch is longer):
	// exactly three highlighted nodes.
	if got := strings.Count(dot, "lightcoral"); got != 3 {
		t.Fatalf("highlighted %d nodes, want 3:\n%s", got, dot)
	}
}

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
