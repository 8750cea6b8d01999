package scenario

// A minimal YAML-subset reader, so scenario files can be written in the
// config dialect operators expect without adding a dependency (the
// toolchain is frozen; see ROADMAP). The subset covers what scenario
// specs need — block maps and lists nested by indentation, inline flow
// lists of scalars ("[DE, CAISO]"), quoted and plain scalars, and '#'
// comments — and nothing else: no anchors, no multi-document streams,
// no multi-line strings, no flow maps. Input outside the subset is
// rejected with a line-numbered error rather than guessed at. The
// parsed tree is handed to encoding/json, so the strict unknown-field
// checking of the JSON path applies to YAML specs too.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

type yamlLine struct {
	num    int // 1-based source line
	indent int
	text   string // content with indentation stripped
}

// yamlToTree parses the subset into nested map[string]any / []any /
// scalar values.
func yamlToTree(data []byte) (any, error) {
	var lines []yamlLine
	for i, raw := range strings.Split(string(data), "\n") {
		text := stripYAMLComment(raw)
		trimmed := strings.TrimLeft(text, " ")
		if strings.TrimSpace(trimmed) == "" {
			continue
		}
		if strings.ContainsRune(text[:len(text)-len(trimmed)], '\t') {
			return nil, fmt.Errorf("yaml line %d: tabs are not allowed in indentation", i+1)
		}
		lines = append(lines, yamlLine{num: i + 1, indent: len(text) - len(trimmed), text: strings.TrimRight(trimmed, " ")})
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("yaml: empty document")
	}
	v, next, err := parseYAMLBlock(lines, 0, lines[0].indent)
	if err != nil {
		return nil, err
	}
	if next != len(lines) {
		return nil, fmt.Errorf("yaml line %d: unexpected dedent past the document root", lines[next].num)
	}
	return v, nil
}

// stripYAMLComment removes a trailing '# ...' comment, respecting
// quoted strings. A quote opens a string only in value position (after
// start-of-line, ':', ',', '[', or a '- ' marker) — an apostrophe
// inside a plain scalar ("Europe's") is content, not a delimiter, so a
// comment after it is still stripped.
func stripYAMLComment(s string) string {
	var quote byte
	prev := byte(0) // last non-space byte outside quotes
	for i := 0; i < len(s); i++ {
		c := s[i]
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		switch {
		case (c == '\'' || c == '"') &&
			(prev == 0 || prev == ':' || prev == ',' || prev == '[' || prev == '-'):
			quote = c
		case c == '#':
			// YAML requires a '#' starting a comment to be at the line
			// start or preceded by whitespace.
			if i == 0 || s[i-1] == ' ' {
				return s[:i]
			}
		}
		if c != ' ' {
			prev = c
		}
	}
	return s
}

// parseYAMLBlock parses one block (map or list) whose items sit at
// exactly `indent`, returning the value and the index of the first
// unconsumed line.
func parseYAMLBlock(lines []yamlLine, start, indent int) (any, int, error) {
	if strings.HasPrefix(lines[start].text, "- ") || lines[start].text == "-" {
		return parseYAMLList(lines, start, indent)
	}
	return parseYAMLMap(lines, start, indent)
}

func parseYAMLMap(lines []yamlLine, start, indent int) (any, int, error) {
	out := map[string]any{}
	i := start
	for i < len(lines) {
		ln := lines[i]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, 0, fmt.Errorf("yaml line %d: unexpected indentation", ln.num)
		}
		if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
			return nil, 0, fmt.Errorf("yaml line %d: list item inside a mapping", ln.num)
		}
		key, rest, err := splitYAMLKey(ln)
		if err != nil {
			return nil, 0, err
		}
		if _, dup := out[key]; dup {
			return nil, 0, fmt.Errorf("yaml line %d: duplicate key %q", ln.num, key)
		}
		if rest != "" {
			v, err := parseYAMLScalarOrFlow(rest, ln.num)
			if err != nil {
				return nil, 0, err
			}
			out[key] = v
			i++
			continue
		}
		// "key:" alone introduces a nested block — or an empty value
		// when the next line dedents.
		if i+1 < len(lines) && lines[i+1].indent > indent {
			v, next, err := parseYAMLBlock(lines, i+1, lines[i+1].indent)
			if err != nil {
				return nil, 0, err
			}
			out[key] = v
			i = next
			continue
		}
		out[key] = nil
		i++
	}
	return out, i, nil
}

func parseYAMLList(lines []yamlLine, start, indent int) (any, int, error) {
	out := []any{}
	i := start
	for i < len(lines) {
		ln := lines[i]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, 0, fmt.Errorf("yaml line %d: unexpected indentation", ln.num)
		}
		if !strings.HasPrefix(ln.text, "- ") && ln.text != "-" {
			return nil, 0, fmt.Errorf("yaml line %d: expected a '- ' list item", ln.num)
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(ln.text, "-"), " ")
		if rest == "" {
			// "-" alone: the item is the nested block that follows.
			if i+1 >= len(lines) || lines[i+1].indent <= indent {
				out = append(out, nil)
				i++
				continue
			}
			v, next, err := parseYAMLBlock(lines, i+1, lines[i+1].indent)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, v)
			i = next
			continue
		}
		if key, after, err := splitYAMLKey(yamlLine{num: ln.num, text: rest}); err == nil {
			// "- key: ..." starts an inline map item; its remaining keys
			// sit two columns deeper (aligned under the key).
			item := map[string]any{}
			if after != "" {
				v, err := parseYAMLScalarOrFlow(after, ln.num)
				if err != nil {
					return nil, 0, err
				}
				item[key] = v
			} else if i+1 < len(lines) && lines[i+1].indent > indent+2 {
				v, next, err := parseYAMLBlock(lines, i+1, lines[i+1].indent)
				if err != nil {
					return nil, 0, err
				}
				item[key] = v
				i = next - 1
			} else {
				item[key] = nil
			}
			if i+1 < len(lines) && lines[i+1].indent == indent+2 &&
				!strings.HasPrefix(lines[i+1].text, "- ") {
				more, next, err := parseYAMLMap(lines, i+1, indent+2)
				if err != nil {
					return nil, 0, err
				}
				// Merge in sorted-key order so which duplicate gets
				// reported does not depend on map iteration order.
				merged := more.(map[string]any)
				keys := make([]string, 0, len(merged))
				for k := range merged {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					if _, dup := item[k]; dup {
						return nil, 0, fmt.Errorf("yaml line %d: duplicate key %q", lines[i+1].num, k)
					}
					item[k] = merged[k]
				}
				i = next - 1
			}
			out = append(out, item)
			i++
			continue
		}
		v, err := parseYAMLScalarOrFlow(rest, ln.num)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, v)
		i++
	}
	return out, i, nil
}

// splitYAMLKey splits "key: value" / "key:" into key and the remaining
// value text, respecting quoted keys.
func splitYAMLKey(ln yamlLine) (key, rest string, err error) {
	text := ln.text
	if strings.HasPrefix(text, `"`) || strings.HasPrefix(text, `'`) {
		q := text[0]
		end := strings.IndexByte(text[1:], q)
		if end < 0 {
			return "", "", fmt.Errorf("yaml line %d: unterminated quoted key", ln.num)
		}
		key = text[1 : 1+end]
		text = text[2+end:]
		if !strings.HasPrefix(text, ":") {
			return "", "", fmt.Errorf("yaml line %d: expected ':' after quoted key", ln.num)
		}
		rest = strings.TrimLeft(text[1:], " ")
		return key, rest, nil
	}
	idx := strings.Index(text, ":")
	// A mapping key's ':' must end the line or be followed by a space;
	// "http://..." alone is a scalar, not a key.
	for idx >= 0 && idx+1 < len(text) && text[idx+1] != ' ' {
		next := strings.Index(text[idx+1:], ":")
		if next < 0 {
			idx = -1
			break
		}
		idx += 1 + next
	}
	if idx < 0 {
		return "", "", fmt.Errorf("yaml line %d: expected 'key: value'", ln.num)
	}
	key = strings.TrimSpace(text[:idx])
	if key == "" {
		return "", "", fmt.Errorf("yaml line %d: empty mapping key", ln.num)
	}
	return key, strings.TrimLeft(text[idx+1:], " "), nil
}

// parseYAMLScalarOrFlow parses a scalar or an inline flow list of
// scalars ("[DE, CAISO, ON]").
func parseYAMLScalarOrFlow(s string, num int) (any, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("yaml line %d: unterminated flow list", num)
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		out := []any{}
		if inner == "" {
			return out, nil
		}
		parts, err := splitFlowItems(inner, num)
		if err != nil {
			return nil, err
		}
		for _, part := range parts {
			v, err := parseYAMLScalarOrFlow(part, num)
			if err != nil {
				return nil, err
			}
			if _, nested := v.([]any); nested {
				return nil, fmt.Errorf("yaml line %d: nested flow lists are outside the supported subset", num)
			}
			out = append(out, v)
		}
		return out, nil
	}
	if strings.HasPrefix(s, "{") {
		return nil, fmt.Errorf("yaml line %d: flow mappings are outside the supported subset", num)
	}
	return parseYAMLScalar(s, num)
}

// splitFlowItems splits a flow list's interior on commas, respecting
// quoted scalars (a comma inside quotes is content, not a separator).
// Unterminated quotes are rejected rather than guessed at.
func splitFlowItems(s string, num int) ([]string, error) {
	var parts []string
	start := 0
	var quote byte
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == ',':
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	if quote != 0 {
		return nil, fmt.Errorf("yaml line %d: unterminated quoted scalar in flow list", num)
	}
	return append(parts, s[start:]), nil
}

func parseYAMLScalar(s string, num int) (any, error) {
	if len(s) >= 2 {
		// Double quotes process escape sequences (\n and friends, as in
		// JSON); single quotes are literal.
		if s[0] == '"' && s[len(s)-1] == '"' {
			if u, err := strconv.Unquote(s); err == nil {
				return u, nil
			}
			return s[1 : len(s)-1], nil
		}
		if s[0] == '\'' && s[len(s)-1] == '\'' {
			return s[1 : len(s)-1], nil
		}
	}
	switch s {
	case "null", "~", "":
		return nil, nil
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, nil
	}
	// ParseFloat also reads nan, inf and infinity, which the YAML 1.2
	// core schema spells .nan and .inf and JSON cannot carry: they stay
	// strings, so name: nan loads and a numeric field fails by name.
	if f, err := strconv.ParseFloat(s, 64); err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) {
		return f, nil
	}
	return s, nil
}
