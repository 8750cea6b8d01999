package dag

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// jobJSON is the serialized form of a Job. Only parent edges are stored;
// children are reconstructed on load.
type jobJSON struct {
	ID      int         `json:"id"`
	Name    string      `json:"name"`
	Arrival float64     `json:"arrival_sec"`
	Class   string      `json:"class,omitempty"`
	Stages  []stageJSON `json:"stages"`
}

type stageJSON struct {
	Name         string  `json:"name,omitempty"`
	NumTasks     int     `json:"num_tasks"`
	TaskDuration float64 `json:"task_duration_sec"`
	Parents      []int   `json:"parents,omitempty"`
}

// MarshalJSON implements json.Marshaler for Job.
func (j *Job) MarshalJSON() ([]byte, error) {
	out := jobJSON{ID: j.ID, Name: j.Name, Arrival: j.Arrival, Class: j.Class}
	for _, s := range j.Stages {
		out.Stages = append(out.Stages, stageJSON{
			Name: s.Name, NumTasks: s.NumTasks, TaskDuration: s.TaskDuration, Parents: s.Parents,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for Job, building the
// decoded graph through Link. Unknown fields are rejected: a misspelled
// key such as "parent" would otherwise drop a precedence edge without a
// word, and a caller's strict decoder does not reach inside a custom
// unmarshaler.
func (j *Job) UnmarshalJSON(data []byte) error {
	var in jobJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return err
	}
	decoded := Job{ID: in.ID, Name: in.Name, Arrival: in.Arrival, Class: in.Class}
	for _, s := range in.Stages {
		decoded.Stages = append(decoded.Stages, &Stage{
			Name: s.Name, NumTasks: s.NumTasks, TaskDuration: s.TaskDuration, Parents: s.Parents,
		})
	}
	if err := decoded.Link(); err != nil {
		return err
	}
	*j = decoded
	return nil
}

// Link completes a job read from its serialized form, whose stages
// carry their own fields and parent edges only: it numbers the stages
// densely in slice order, sorts and deduplicates each parent list,
// rebuilds every child edge from the parent lists (a parent outside the
// job is ErrBadEdge), and validates the graph. An empty parent list
// becomes nil. Every decoder that reads a Job from JSON builds it
// through Link, UnmarshalJSON included, so the wire form has one
// construction rule.
func (j *Job) Link() error {
	for i, s := range j.Stages {
		s.ID = i
		for _, p := range s.Parents {
			if p < 0 || p >= len(j.Stages) {
				return fmt.Errorf("%w: stage %d parent %d", ErrBadEdge, i, p)
			}
		}
		s.Parents = normalize(s.Parents)
		if len(s.Parents) == 0 {
			s.Parents = nil
		}
	}
	for _, s := range j.Stages {
		for _, p := range s.Parents {
			j.Stages[p].Children = append(j.Stages[p].Children, s.ID)
		}
	}
	return j.Validate()
}
