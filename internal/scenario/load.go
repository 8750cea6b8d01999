package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Parse decodes a scenario spec from JSON or the YAML subset (yaml.go),
// detected by the first non-space byte: '{' selects JSON. Unknown
// fields are rejected on both paths, so a typo'd knob fails loudly
// instead of silently selecting a default. The spec is validated before
// being returned.
func Parse(data []byte) (*Spec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("scenario: empty spec")
	}
	if trimmed[0] == '{' {
		return parseStrictJSON(data)
	}
	tree, err := yamlToTree(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// Round-tripping the YAML tree through encoding/json reuses the
	// Spec's JSON schema — field names, number coercion, and the strict
	// unknown-field check — so the two formats cannot drift.
	enc, err := json.Marshal(tree)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return parseStrictJSON(enc)
}

func parseStrictJSON(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	// A trailing second document would be silently dropped otherwise.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after spec document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a spec file: a .json file as JSON, any other
// through Parse, which tells JSON from YAML by content. Errors name the
// file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	parse := Parse
	if strings.EqualFold(filepath.Ext(path), ".json") {
		parse = parseStrictJSON
	}
	s, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
