package carbonapi

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"pcaps/internal/dag"
	"pcaps/internal/sched"
	"pcaps/internal/sim"
)

// maxNesting is encoding/json's limit on nested objects and arrays; a
// body nested deeper is rejected before any of it is decoded.
const maxNesting = 10000

// The messages of the two rejections encoding/json would not make: it
// merges a repeated field into the value already decoded, and leaves
// whatever follows the first value unread.
const (
	msgRepeated = "repeated field"
	msgTrailing = "trailing data after the request"
)

// The JSON field names of each decoded type, in the order their
// decoders' switches number them. The tests check them against the
// types' json tags and against dag.Job's encoding.
var (
	requestFields  = []string{"policy", "policies", "seed", "snapshot"}
	specFields     = []string{"kind", "b", "gamma", "inner"}
	snapshotFields = []string{"time_sec", "num_executors", "per_job_cap", "carbon", "jobs", "executors"}
	carbonFields   = []string{"grid", "interval_sec", "values", "forecast_horizon_sec", "forecast_low", "forecast_high"}
	jobFields      = []string{"dag", "stages"}
	progressFields = []string{"dispatched", "completed", "running", "limit"}
	executorFields = []string{"state", "job", "stage"}
	dagFields      = []string{"id", "name", "arrival_sec", "class", "stages"}
	dagStageFields = []string{"name", "num_tasks", "task_duration_sec", "parents"}
)

// decodePlacement decodes a POST /v1/placement body in one pass over
// its bytes, without reflection, into the request encoding/json would
// decode with DisallowUnknownFields. It accepts and rejects what that
// decoder does: a key matches its field exactly or else under
// bytes.EqualFold; null leaves a scalar or struct as it is and a
// pointer or slice nil; an int rejects fractions and overflow; invalid
// UTF-8 in a string becomes U+FFFD; nesting deeper than maxNesting is
// rejected. It also rejects a repeated field (case-folded twins
// included) and anything but whitespace after the request object.
//
// Each job's DAG is built through dag.Job.Link, the rule
// Job.UnmarshalJSON applies. Every string is copied, so the request
// keeps nothing of body alive, and no allocation is sized from a number
// in body. A rejection names the JSON path of the offending value
// ("snapshot.jobs[3].dag.stages[1]"), or "body" for a truncated body,
// trailing data, too deep a nesting, or a problem with the top-level
// value itself.
func decodePlacement(body []byte) (*PlacementRequest, *ParamError) {
	d := decoder{data: body}
	req := new(PlacementRequest)
	err := d.request(req)
	if err == nil {
		if d.peek(); d.off < len(d.data) {
			err = &decodeErr{msg: fmt.Sprintf("%s at offset %d", msgTrailing, d.off), whole: true}
		}
	}
	if err != nil {
		return nil, err.param()
	}
	return req, nil
}

// decodeErr is a rejection on its way out of the decoder: each object
// field and array element it leaves adds its step to the path, so a
// valid body formats no path at all.
type decodeErr struct {
	msg string
	// whole marks an error about the body as a whole, named "body".
	whole bool
	// steps is the path, innermost first.
	steps []pathStep
}

// pathStep is one object field or, when field is "", one array index.
type pathStep struct {
	field string
	index int
}

func (e *decodeErr) at(field string) *decodeErr {
	if !e.whole {
		e.steps = append(e.steps, pathStep{field: field})
	}
	return e
}

func (e *decodeErr) atIndex(i int) *decodeErr {
	if !e.whole {
		e.steps = append(e.steps, pathStep{index: i})
	}
	return e
}

// param formats the error as the *ParamError the handler answers.
func (e *decodeErr) param() *ParamError {
	if len(e.steps) == 0 {
		return &ParamError{Param: "body", Msg: e.msg}
	}
	var b strings.Builder
	for i := len(e.steps) - 1; i >= 0; i-- {
		s := e.steps[i]
		if s.field == "" {
			fmt.Fprintf(&b, "[%d]", s.index)
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('.')
		}
		b.WriteString(s.field)
	}
	return &ParamError{Param: b.String(), Msg: e.msg}
}

// decoder reads one JSON value from data, starting at off.
type decoder struct {
	data  []byte
	off   int
	depth int
	// buf holds the last string that needed unescaping.
	buf []byte
	// Scratch for the lists every job repeats, reused from job to job.
	stages   []dag.Stage
	parents  []int
	progress []sim.StageSnapshot
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) peek() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (d *decoder) eof() *decodeErr {
	return &decodeErr{msg: "unexpected EOF", whole: true}
}

// syntax reports the byte at off as invalid where it stands.
func (d *decoder) syntax(context string) *decodeErr {
	if d.off >= len(d.data) {
		return d.eof()
	}
	return &decodeErr{msg: fmt.Sprintf("invalid character %q %s at offset %d", d.data[d.off:d.off+1], context, d.off)}
}

// mismatch reports the value at off as not the wanted kind.
func (d *decoder) mismatch(want string) *decodeErr {
	var got string
	switch c := d.peek(); {
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == '"':
		got = "string"
	case c == 't' || c == 'f':
		got = "boolean"
	case c == '-' || '0' <= c && c <= '9':
		got = "number"
	default:
		return d.syntax("looking for beginning of value")
	}
	return &decodeErr{msg: fmt.Sprintf("want %s, got %s", want, got)}
}

// null consumes the literal null at off.
func (d *decoder) null() *decodeErr {
	for i := range len("null") {
		if d.off >= len(d.data) {
			return d.eof()
		}
		if d.data[d.off] != "null"[i] {
			return d.syntax("in literal null")
		}
		d.off++
	}
	return nil
}

// open enters the object or array whose opening byte is at off.
func (d *decoder) open() *decodeErr {
	d.depth++
	if d.depth > maxNesting {
		return &decodeErr{msg: fmt.Sprintf("nesting deeper than %d levels at offset %d", maxNesting, d.off), whole: true}
	}
	d.off++
	return nil
}

// object decodes a JSON object onto a struct whose JSON field names are
// names, calling field(k) to decode the value of names[k]. null leaves
// the struct as it is.
func (d *decoder) object(names []string, field func(k int) *decodeErr) *decodeErr {
	switch d.peek() {
	case '{':
	case 'n':
		return d.null()
	default:
		return d.mismatch("an object")
	}
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.off++
		d.depth--
		return nil
	}
	var seen uint64
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, err := d.quoted()
		if err != nil {
			return err
		}
		k := match(names, key)
		if k < 0 {
			return &decodeErr{msg: "unknown field " + strconv.Quote(string(key))}
		}
		if seen&(1<<k) != 0 {
			return (&decodeErr{msg: msgRepeated + " " + strconv.Quote(string(key))}).at(names[k])
		}
		seen |= 1 << k
		if d.peek() != ':' {
			return d.syntax("after object key")
		}
		d.off++
		if err := field(k); err != nil {
			return err.at(names[k])
		}
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// match returns the index of the name key matches, exactly or else
// under case folding, as encoding/json matches keys to fields; -1 when
// none does.
func match(names []string, key []byte) int {
	for k, name := range names {
		if string(key) == name {
			return k
		}
	}
	for k, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return k
		}
	}
	return -1
}

// list decodes a JSON array into a new slice, decoding each element
// with elem; null leaves *out nil, and [] makes it empty, not nil. With
// a scratch slice buf, the elements are decoded into it and copied out
// at their final size: one allocation for a list every job repeats.
func list[T any](d *decoder, out *[]T, buf *[]T, elem func(*T) *decodeErr) *decodeErr {
	switch d.peek() {
	case '[':
	case 'n':
		return d.null()
	default:
		return d.mismatch("an array")
	}
	if err := d.open(); err != nil {
		return err
	}
	s := []T{}
	if buf != nil {
		s = (*buf)[:0]
	}
	for i := 0; d.peek() != ']'; i++ {
		if i > 0 {
			if d.peek() != ',' {
				return d.syntax("after array element")
			}
			d.off++
		}
		// Decoding in place: a local passed to elem would escape.
		var zero T
		s = append(s, zero)
		if err := elem(&s[i]); err != nil {
			return err.atIndex(i)
		}
	}
	d.off++
	d.depth--
	if buf != nil {
		*buf = s
		s = make([]T, len(s))
		copy(s, *buf)
	}
	*out = s
	return nil
}

// ptr decodes a value into a new *T; null leaves the pointer nil.
func ptr[T any](d *decoder, out **T, decode func(*T) *decodeErr) *decodeErr {
	if d.peek() == 'n' {
		return d.null()
	}
	*out = new(T)
	return decode(*out)
}

// number scans the JSON number at off and reports whether it has a
// fraction or an exponent.
func (d *decoder) number() (lit []byte, frac bool, err *decodeErr) {
	start := d.off
	if d.data[d.off] == '-' {
		d.off++
	}
	if d.off >= len(d.data) {
		return nil, false, d.eof()
	}
	switch c := d.data[d.off]; {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, false, d.syntax("in numeric literal")
	}
	if d.off < len(d.data) && d.data[d.off] == '.' {
		frac = true
		d.off++
		if d.digits() == 0 {
			return nil, false, d.syntax("after decimal point in numeric literal")
		}
	}
	if d.off < len(d.data) && (d.data[d.off] == 'e' || d.data[d.off] == 'E') {
		frac = true
		d.off++
		if d.off < len(d.data) && (d.data[d.off] == '+' || d.data[d.off] == '-') {
			d.off++
		}
		if d.digits() == 0 {
			return nil, false, d.syntax("in exponent of numeric literal")
		}
	}
	return d.data[start:d.off], frac, nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.off
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
	return d.off - start
}

// integer decodes a JSON number that is an integer of the given bit
// size; null leaves *v as it is.
func (d *decoder) integer(v *int64, bits int) *decodeErr {
	switch c := d.peek(); {
	case c == '-' || '0' <= c && c <= '9':
	case c == 'n':
		return d.null()
	default:
		return d.mismatch("an integer")
	}
	lit, frac, err := d.number()
	if err != nil {
		return err
	}
	if frac {
		return &decodeErr{msg: fmt.Sprintf("want an integer, got %s", lit)}
	}
	n, perr := strconv.ParseInt(string(lit), 10, bits)
	if perr != nil {
		return &decodeErr{msg: fmt.Sprintf("integer %s overflows %d bits", lit, bits)}
	}
	*v = n
	return nil
}

func (d *decoder) decodeInt(v *int) *decodeErr {
	n := int64(*v)
	if err := d.integer(&n, strconv.IntSize); err != nil {
		return err
	}
	*v = int(n)
	return nil
}

// decodeFloat decodes a JSON number; null leaves *v as it is.
func (d *decoder) decodeFloat(v *float64) *decodeErr {
	switch c := d.peek(); {
	case c == '-' || '0' <= c && c <= '9':
	case c == 'n':
		return d.null()
	default:
		return d.mismatch("a number")
	}
	lit, _, err := d.number()
	if err != nil {
		return err
	}
	f, perr := strconv.ParseFloat(string(lit), 64)
	if perr != nil {
		return &decodeErr{msg: fmt.Sprintf("number %s out of range", lit)}
	}
	*v = f
	return nil
}

// decodeString decodes a JSON string into a copy; null leaves *v as it
// is.
func (d *decoder) decodeString(v *string) *decodeErr {
	switch d.peek() {
	case '"':
	case 'n':
		return d.null()
	default:
		return d.mismatch("a string")
	}
	s, err := d.quoted()
	if err != nil {
		return err
	}
	*v = string(s)
	return nil
}

// quoted scans the JSON string whose opening quote is at off and
// returns its contents unescaped. The bytes alias the body or d.buf,
// so they are valid only until the next call.
func (d *decoder) quoted() ([]byte, *decodeErr) {
	d.off++
	start := d.off
	for d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			return d.data[start : d.off-1], nil
		case c == '\\' || c < ' ':
			return d.unquote(start)
		case c < utf8.RuneSelf:
			d.off++
		default:
			r, size := utf8.DecodeRune(d.data[d.off:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start)
			}
			d.off += size
		}
	}
	return nil, d.eof()
}

// unquote finishes a string that needs rewriting, from off on, into
// d.buf: it resolves escapes and replaces invalid UTF-8 and unpaired
// surrogates with U+FFFD, byte for byte as encoding/json does.
func (d *decoder) unquote(start int) ([]byte, *decodeErr) {
	b := append(d.buf[:0], d.data[start:d.off]...)
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case c == '"':
			d.off++
			d.buf = b
			return b, nil
		case c < ' ':
			return nil, d.syntax("in string literal")
		case c == '\\':
			d.off++
			if d.off >= len(d.data) {
				return nil, d.eof()
			}
			switch e := d.data[d.off]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, err := d.hex4()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					// Only a \u escape right after can complete the
					// pair; an unpaired half becomes U+FFFD.
					r = utf16.DecodeRune(r, getu4(d.data[d.off+1:]))
					if r != unicode.ReplacementChar {
						d.off += 6
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				return nil, d.syntax("in string escape code")
			}
			d.off++
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.off++
		default:
			r, size := utf8.DecodeRune(d.data[d.off:])
			b = utf8.AppendRune(b, r)
			d.off += size
		}
	}
	return nil, d.eof()
}

// hex4 reads the four hex digits of the \u escape whose 'u' is at off,
// leaving off on the last digit.
func (d *decoder) hex4() (rune, *decodeErr) {
	var r rune
	for range 4 {
		d.off++
		if d.off >= len(d.data) {
			return 0, d.eof()
		}
		h := hexDigit(d.data[d.off])
		if h < 0 {
			return 0, d.syntax("in \\u hexadecimal character escape")
		}
		r = r<<4 | h
	}
	return r, nil
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h := hexDigit(c)
		if h < 0 {
			return -1
		}
		r = r<<4 | h
	}
	return r
}

// hexDigit returns the value of one hex digit, or -1.
func hexDigit(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

func (d *decoder) request(r *PlacementRequest) *decodeErr {
	return d.object(requestFields, func(k int) *decodeErr {
		switch k {
		case 0:
			return ptr(d, &r.Policy, d.spec)
		case 1:
			return list(d, &r.Policies, nil, d.spec)
		case 2:
			return d.integer(&r.Seed, 64)
		default:
			return ptr(d, &r.Snapshot, d.snapshot)
		}
	})
}

func (d *decoder) spec(s *sched.Spec) *decodeErr {
	return d.object(specFields, func(k int) *decodeErr {
		switch k {
		case 0:
			return d.decodeString(&s.Kind)
		case 1:
			return ptr(d, &s.B, d.decodeInt)
		case 2:
			return ptr(d, &s.Gamma, d.decodeFloat)
		default:
			return ptr(d, &s.Inner, d.spec)
		}
	})
}

func (d *decoder) snapshot(s *sim.Snapshot) *decodeErr {
	return d.object(snapshotFields, func(k int) *decodeErr {
		switch k {
		case 0:
			return d.decodeFloat(&s.TimeSec)
		case 1:
			return d.decodeInt(&s.NumExecutors)
		case 2:
			return d.decodeInt(&s.PerJobCap)
		case 3:
			return d.carbon(&s.Carbon)
		case 4:
			return list(d, &s.Jobs, nil, d.job)
		default:
			return list(d, &s.Executors, nil, d.executor)
		}
	})
}

func (d *decoder) carbon(c *sim.CarbonSnapshot) *decodeErr {
	return d.object(carbonFields, func(k int) *decodeErr {
		switch k {
		case 0:
			return d.decodeString(&c.Grid)
		case 1:
			return d.decodeFloat(&c.IntervalSec)
		case 2:
			return list(d, &c.Values, nil, d.decodeFloat)
		case 3:
			return d.decodeFloat(&c.ForecastHorizonSec)
		case 4:
			return d.decodeFloat(&c.ForecastLow)
		default:
			return d.decodeFloat(&c.ForecastHigh)
		}
	})
}

func (d *decoder) job(j *sim.JobSnapshot) *decodeErr {
	return d.object(jobFields, func(k int) *decodeErr {
		if k == 0 {
			return ptr(d, &j.DAG, d.dag)
		}
		return list(d, &j.Stages, &d.progress, d.progressOf)
	})
}

func (d *decoder) progressOf(s *sim.StageSnapshot) *decodeErr {
	return d.object(progressFields, func(k int) *decodeErr {
		switch k {
		case 0:
			return d.decodeInt(&s.Dispatched)
		case 1:
			return d.decodeInt(&s.Completed)
		case 2:
			return d.decodeInt(&s.Running)
		default:
			return d.decodeInt(&s.Limit)
		}
	})
}

func (d *decoder) executor(e *sim.ExecutorSnapshot) *decodeErr {
	return d.object(executorFields, func(k int) *decodeErr {
		switch k {
		case 0:
			return d.decodeString(&e.State)
		case 1:
			return d.decodeInt(&e.Job)
		default:
			return d.decodeInt(&e.Stage)
		}
	})
}

// dag decodes a job DAG in dag.Job's JSON form and builds it through
// dag.Job.Link. The job's stages share one array.
func (d *decoder) dag(j *dag.Job) *decodeErr {
	var stages []dag.Stage
	err := d.object(dagFields, func(k int) *decodeErr {
		switch k {
		case 0:
			return d.decodeInt(&j.ID)
		case 1:
			return d.decodeString(&j.Name)
		case 2:
			return d.decodeFloat(&j.Arrival)
		case 3:
			return d.decodeString(&j.Class)
		default:
			return list(d, &stages, &d.stages, d.dagStage)
		}
	})
	if err != nil {
		return err
	}
	if len(stages) > 0 {
		j.Stages = make([]*dag.Stage, len(stages))
		for i := range stages {
			j.Stages[i] = &stages[i]
		}
	}
	if err := j.Link(); err != nil {
		return &decodeErr{msg: err.Error()}
	}
	return nil
}

// dagStage decodes one stage of a job DAG; a null stage is a zero one,
// which Link rejects.
func (d *decoder) dagStage(s *dag.Stage) *decodeErr {
	return d.object(dagStageFields, func(k int) *decodeErr {
		switch k {
		case 0:
			return d.decodeString(&s.Name)
		case 1:
			return d.decodeInt(&s.NumTasks)
		case 2:
			return d.decodeFloat(&s.TaskDuration)
		default:
			return list(d, &s.Parents, &d.parents, d.decodeInt)
		}
	})
}
