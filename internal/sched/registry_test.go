package sched

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// kinds lists the paper's eight policies (§6.1) in the order rejections
// name them.
var kinds = []string{"fifo", "kube-default", "weighted-fair", "decima", "uniformpb", "greenhadoop", "cap", "pcaps"}

// TestDefaultRegistryKinds pins the policy set: the eight kinds, listed
// in order when a spec names none; decima and uniformpb as the kinds
// PCAPS wraps; and cap and pcaps as the kinds with a sweepable
// parameter.
func TestDefaultRegistryKinds(t *testing.T) {
	r := Default()
	if err, want := r.Check(Spec{}), "have "+strings.Join(kinds, ", "); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Check(no kind) = %v, want it to list %q", err, want)
	}
	sweep := map[string]string{"cap": "b", "pcaps": "gamma"}
	for _, kind := range kinds {
		if err := r.Check(Spec{Kind: kind}); err != nil {
			t.Errorf("Check(%q): %v", kind, err)
		}
		wrapped := r.Check(Spec{Kind: "pcaps", Inner: &Spec{Kind: kind}}) == nil
		if want := kind == "decima" || kind == "uniformpb"; wrapped != want {
			t.Errorf("pcaps wraps %q: %v, want %v", kind, wrapped, want)
		}
		if got := r.SweepParam(kind); got != sweep[kind] {
			t.Errorf("SweepParam(%q) = %q, want %q", kind, got, sweep[kind])
		}
	}
}

func TestRegistryBuildsEveryKind(t *testing.T) {
	r := Default()
	wantName := map[string]string{
		"fifo":          "FIFO",
		"kube-default":  "default",
		"weighted-fair": "WeightedFair",
		"decima":        "Decima",
		"uniformpb":     "UniformPB",
		"greenhadoop":   "GreenHadoop",
		"cap":           "CAP-FIFO",
		"pcaps":         "PCAPS",
	}
	for _, kind := range kinds {
		f, err := r.New(Spec{Kind: kind})
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		s := f(1)
		if s == nil {
			t.Fatalf("New(%q) factory returned nil scheduler", kind)
		}
		if s.Name() != wantName[kind] {
			t.Errorf("New(%q).Name() = %q, want %q", kind, s.Name(), wantName[kind])
		}
	}
}

func TestRegistryRejects(t *testing.T) {
	type rejection struct {
		name  string
		spec  Spec
		field string
		msg   string
	}
	cases := []rejection{
		{"empty kind", Spec{}, "kind", "missing policy kind"},
		{"unknown kind", Spec{Kind: "srpt"}, "kind", `unknown policy kind "srpt"`},
		{"b on fifo", Spec{Kind: "fifo", B: Int(3)}, "b", "takes no CAP quota"},
		{"gamma on cap", Spec{Kind: "cap", Gamma: Float(0.5)}, "gamma", "takes no gamma"},
		// The explicit-zero ambiguity: 0 must be an error, never a
		// silent rebind to the default.
		{"zero b", Spec{Kind: "cap", B: Int(0)}, "b", "CAP quota 0 below 1"},
		{"negative b", Spec{Kind: "cap", B: Int(-4)}, "b", "CAP quota -4 below 1"},
		{"zero gamma", Spec{Kind: "pcaps", Gamma: Float(0)}, "gamma", "gamma 0 outside (0, 1]"},
		{"gamma above one", Spec{Kind: "pcaps", Gamma: Float(1.5)}, "gamma", "gamma 1.5 outside (0, 1]"},
		{"inner on plain kind", Spec{Kind: "decima", Inner: &Spec{Kind: "fifo"}}, "inner", "takes no inner policy"},
		{"bad cap inner", Spec{Kind: "cap", Inner: &Spec{Kind: "nope"}}, "inner.kind", `unknown policy kind "nope"`},
		{"nested cap inner b", Spec{Kind: "cap", Inner: &Spec{Kind: "cap", B: Int(0)}}, "inner.b", "below 1"},
		{"non-prob pcaps inner", Spec{Kind: "pcaps", Inner: &Spec{Kind: "fifo"}}, "inner.kind", "wraps a probabilistic policy"},
		{"pcaps inner with params", Spec{Kind: "pcaps", Inner: &Spec{Kind: "decima", Gamma: Float(0.5)}}, "inner", "takes only a kind"},
		{"b on pcaps", Spec{Kind: "pcaps", B: Int(3)}, "b", `policy kind "pcaps" takes no CAP quota`},
	}
	// Each plain kind rejects every parameter it does not take.
	for _, kind := range kinds[:6] {
		quoted := fmt.Sprintf("policy kind %q", kind)
		cases = append(cases,
			rejection{"b on plain " + kind, Spec{Kind: kind, B: Int(3)}, "b", quoted + " takes no CAP quota"},
			rejection{"gamma on plain " + kind, Spec{Kind: kind, Gamma: Float(0.5)}, "gamma", quoted + " takes no gamma"},
			rejection{"inner on plain " + kind, Spec{Kind: kind, Inner: &Spec{Kind: "fifo"}}, "inner", quoted + " takes no inner policy"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Default().Check(tc.spec)
			if err == nil {
				t.Fatalf("Check(%+v) accepted, want rejection on %s", tc.spec, tc.field)
			}
			pe, ok := err.(*ParamError)
			if !ok {
				t.Fatalf("Check(%+v) = %T (%v), want *ParamError", tc.spec, err, err)
			}
			if pe.Field != tc.field {
				t.Errorf("field = %q, want %q (err: %v)", pe.Field, tc.field, err)
			}
			if !strings.Contains(pe.Msg, tc.msg) {
				t.Errorf("msg = %q, want substring %q", pe.Msg, tc.msg)
			}
		})
	}
}

func TestRegistryDefaultsAndOverrides(t *testing.T) {
	r := Default()
	cases := []struct {
		spec Spec
		name string
		b    int
	}{
		{Spec{Kind: "cap", B: Int(5)}, "CAP-FIFO", 5},
		{Spec{Kind: "cap"}, "CAP-FIFO", DefaultCAPB},
		{Spec{Kind: "cap", Inner: &Spec{Kind: "decima"}}, "CAP-Decima", DefaultCAPB},
		{Spec{Kind: "cap", B: Int(1), Inner: &Spec{Kind: "pcaps", Gamma: Float(0.9)}}, "CAP-PCAPS", 1},
		{Spec{Kind: "pcaps", Gamma: Float(1)}, "PCAPS", 0},
		{Spec{Kind: "pcaps", Inner: &Spec{Kind: "uniformpb"}}, "PCAPS", 0},
	}
	for _, tc := range cases {
		f, err := r.New(tc.spec)
		if err != nil {
			t.Fatalf("New(%+v): %v", tc.spec, err)
		}
		s := f(7)
		if got := s.Name(); got != tc.name {
			t.Errorf("New(%+v).Name() = %q, want %q", tc.spec, got, tc.name)
		}
		if cap, ok := s.(*CAPWrap); ok && cap.B != tc.b {
			t.Errorf("New(%+v).B = %d, want %d", tc.spec, cap.B, tc.b)
		}
	}
}

// TestSpecJSONRoundTrip pins the wire shape the placement API accepts:
// pointers must encode as plain numbers and omit cleanly when nil.
func TestSpecJSONRoundTrip(t *testing.T) {
	in := Spec{Kind: "cap", B: Int(10), Inner: &Spec{Kind: "pcaps", Gamma: Float(0.9)}}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"cap","b":10,"inner":{"kind":"pcaps","gamma":0.9}}`
	if string(raw) != want {
		t.Fatalf("Marshal = %s, want %s", raw, want)
	}
	var out Spec
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != "cap" || out.B == nil || *out.B != 10 ||
		out.Inner == nil || out.Inner.Gamma == nil || *out.Inner.Gamma != 0.9 {
		t.Fatalf("round-trip lost fields: %+v", out)
	}
	if bare, _ := json.Marshal(Spec{Kind: "fifo"}); string(bare) != `{"kind":"fifo"}` {
		t.Fatalf("Marshal(fifo) = %s, want bare kind", bare)
	}
}
