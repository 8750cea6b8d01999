package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pcaps/internal/sched"
)

const yamlSpec = `
# comments are stripped, including trailing ones
name: demo          # trailing comment
title: "a: quoted title"
seed: 9
grids: [DE, CAISO]  # inline flow list
workload:
  mix: tpch
  jobs: 10
trials: 2
baseline:
  kind: fifo
policies:
  - name: PCAPS
    kind: pcaps
    gamma: 0.75
    inner:
      kind: decima
  - kind: cap
    b: 10
notes:
  - "line one\n"
`

func TestParseYAMLSpec(t *testing.T) {
	got, err := Parse([]byte(yamlSpec))
	if err != nil {
		t.Fatal(err)
	}
	want := &Spec{
		Name:     "demo",
		Title:    "a: quoted title",
		Seed:     9,
		Grids:    []string{"DE", "CAISO"},
		Workload: WorkloadSpec{Mix: "tpch", Jobs: 10},
		Trials:   2,
		Baseline: &PolicySpec{Kind: "fifo"},
		Policies: []PolicySpec{
			{Name: "PCAPS", Kind: "pcaps", Gamma: sched.Float(0.75), Inner: &PolicySpec{Kind: "decima"}},
			{Kind: "cap", B: sched.Int(10)},
		},
		Notes: []string{"line one\n"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed spec = %+v, want %+v", got, want)
	}
}

// TestParseYAMLEquivalentToJSON: the same scenario in either dialect
// decodes to the same Spec (the YAML tree is funneled through the JSON
// schema).
func TestParseYAMLEquivalentToJSON(t *testing.T) {
	jsonSpec := `{
		"name": "demo", "title": "a: quoted title", "seed": 9,
		"grids": ["DE", "CAISO"],
		"workload": {"mix": "tpch", "jobs": 10},
		"trials": 2,
		"baseline": {"kind": "fifo"},
		"policies": [
			{"name": "PCAPS", "kind": "pcaps", "gamma": 0.75, "inner": {"kind": "decima"}},
			{"kind": "cap", "b": 10}
		],
		"notes": ["line one\n"]
	}`
	fromYAML, err := Parse([]byte(yamlSpec))
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Parse([]byte(jsonSpec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromYAML, fromJSON) {
		t.Fatalf("YAML and JSON decode diverged:\n%+v\n%+v", fromYAML, fromJSON)
	}
}

// TestParseRejectsUnknownFields: a typo'd knob must fail loudly, in
// both dialects.
func TestParseRejectsUnknownFields(t *testing.T) {
	for _, doc := range []string{
		`{"name": "x", "workload": {"mix": "tpch"}, "sede": 7}`,
		"name: x\nworkload:\n  mix: tpch\nsede: 7\n",
	} {
		if _, err := Parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), "sede") {
			t.Fatalf("unknown field accepted or unnamed: %v", err)
		}
	}
}

// TestYAMLFlowListQuotedCommas: a comma inside a quoted scalar is
// content, not a separator; an unterminated quote is rejected, not
// guessed at.
func TestYAMLFlowListQuotedCommas(t *testing.T) {
	tree, err := yamlToTree([]byte(`vals: ["a, b", 'c, d', plain]` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	got := tree.(map[string]any)["vals"]
	want := []any{"a, b", "c, d", "plain"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flow list = %#v, want %#v", got, want)
	}
	if _, err := yamlToTree([]byte(`vals: ["a, b]` + "\n")); err == nil {
		t.Fatal("unterminated quoted scalar accepted")
	}
}

func TestParseRejectsMalformedYAML(t *testing.T) {
	cases := map[string]string{
		"tabs":              "name: x\n\tworkload: 1\n",
		"flow map":          "name: x\nworkload: {mix: tpch}\n",
		"bare scalar":       "just words\n",
		"unterminated flow": "name: x\ngrids: [DE, CAISO\n",
		"empty":             "   \n",
	}
	for name, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Fatalf("%s: malformed YAML accepted", name)
		}
	}
}

// TestParseYAMLNonFiniteScalars: nan, inf and infinity, which
// strconv.ParseFloat reads but JSON cannot carry, load as strings: a
// string field takes them, and a numeric field fails naming itself.
func TestParseYAMLNonFiniteScalars(t *testing.T) {
	const rest = "workload:\n  mix: tpch\nbaseline:\n  kind: fifo\npolicies:\n  - kind: cap\n"
	for _, tc := range []struct{ doc, name, title string }{
		{"name: nan\n" + rest, "nan", ""},
		{"name: x\ntitle: Infinity\n" + rest, "x", "Infinity"},
		{"name: -inf\ntitle: NaN\n" + rest, "-inf", "NaN"},
	} {
		spec, err := Parse([]byte(tc.doc))
		if err != nil {
			t.Fatalf("%q: %v", tc.doc, err)
		}
		if spec.Name != tc.name || spec.Title != tc.title {
			t.Errorf("%q: name %q, title %q; want %q, %q", tc.doc, spec.Name, spec.Title, tc.name, tc.title)
		}
	}
	for _, v := range []string{"nan", "NaN", "inf", "-Inf", "+infinity", ".inf"} {
		if _, err := Parse([]byte("name: x\nseed: " + v + "\n" + rest)); err == nil || !strings.Contains(err.Error(), "Spec.seed") {
			t.Errorf("seed: %s: error %v, want one naming Spec.seed", v, err)
		}
	}
}

func TestParseRejectsTrailingDocument(t *testing.T) {
	doc := `{"name": "x", "workload": {"mix": "tpch"}, "baseline": {"kind": "fifo"}, "policies": [{"kind": "cap"}]}{"name": "y"}`
	if _, err := Parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing document accepted: %v", err)
	}
}

// TestLoadExampleGallery: every checked-in example spec must parse and
// compile — the gallery is documentation that cannot drift.
func TestLoadExampleGallery(t *testing.T) {
	for _, path := range []string{
		"../../examples/scenarios/minimal.json",
		"../../examples/scenarios/gamma-sweep.json",
		"../../examples/scenarios/federation.yaml",
		"../../examples/scenarios/priced.json",
		"../../examples/scenarios/burst-overload.yaml",
		"../../examples/scenarios/hyperscale.yaml",
	} {
		spec, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := Compile(*spec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
}

// TestLoadJSONInYAMLFile: a file not named .json goes through Parse, so a
// JSON document saved as .yaml loads to the same Spec as the .json file,
// and a decoding error still names the file.
func TestLoadJSONInYAMLFile(t *testing.T) {
	const src = "../../examples/scenarios/minimal.json"
	want, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "minimal.yaml")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JSON saved as .yaml loaded to\n%+v\nwant\n%+v", got, want)
	}

	bad := filepath.Join(dir, "bad.yaml")
	if err := os.WriteFile(bad, []byte("name demo\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("malformed YAML: error %v, want one naming %s", err, bad)
	}
}
