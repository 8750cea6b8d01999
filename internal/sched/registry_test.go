package sched

import (
	"encoding/json"
	"strings"
	"testing"

	"pcaps/internal/sim"
)

func TestDefaultRegistryKinds(t *testing.T) {
	want := []string{"fifo", "kube-default", "weighted-fair", "decima", "uniformpb", "greenhadoop", "cap", "pcaps"}
	got := Default().Kinds()
	if len(got) != len(want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Kinds()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if got := Default().ProbabilisticKinds(); len(got) != 2 || got[0] != "decima" || got[1] != "uniformpb" {
		t.Fatalf("ProbabilisticKinds() = %v, want [decima uniformpb]", got)
	}
	if got := Default().Sweepable(); len(got) != 2 || got[0] != "cap" || got[1] != "pcaps" {
		t.Fatalf("Sweepable() = %v, want [cap pcaps]", got)
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
	for _, kind := range r.Kinds() {
		f, err := r.New(Spec{Kind: kind})
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		s := f(1)
		if s == nil {
			t.Fatalf("New(%q) factory returned nil scheduler", kind)
		}
		if want, ok := wantName[kind]; ok && s.Name() != want {
			t.Errorf("New(%q).Name() = %q, want %q", kind, s.Name(), want)
		}
	}
}

func TestRegistryRejects(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		field string
		msg   string
	}{
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

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	fifo := Entry{New: func(Resolved) sim.Scheduler { return &FIFO{} }}
	mustPanic("empty kind", func() { NewRegistry().Register("", fifo) })
	mustPanic("nil constructor", func() { NewRegistry().Register("x", Entry{}) })
	mustPanic("duplicate kind", func() {
		r := NewRegistry()
		r.Register("x", fifo)
		r.Register("x", fifo)
	})
}
