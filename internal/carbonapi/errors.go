package carbonapi

import (
	"fmt"
	"net/http"
)

// ParamError reports a request input the server rejected, naming the
// offending query parameter or body field — the same field-naming
// convention as sched.ParamError, applied to the HTTP surface. Every
// 400 this package writes originates from one of these (or from a
// backend rejection wrapping ErrInvalidScenario / ErrInvalidPlacement,
// which follow the same convention); the fielderr analyzer enforces it.
type ParamError struct {
	// Param is the query parameter or dotted body-field path.
	Param string
	// Msg explains the rejection.
	Msg string
}

// Error implements error as "param: message".
func (e *ParamError) Error() string { return e.Param + ": " + e.Msg }

// badParam builds a *ParamError for the named parameter.
func badParam(param, format string, args ...any) *ParamError {
	return &ParamError{Param: param, Msg: fmt.Sprintf(format, args...)}
}

// badRequest answers 400 with the typed error's field-naming message.
// It is the package's one blessed 400 writer: the fielderr analyzer
// forbids direct StatusBadRequest writes elsewhere and checks, at every
// call site of this sink, that the error is a *ParamError or was
// guarded with errors.Is/errors.As against a typed rejection.
//
//pcaps:fielderr-sink
func badRequest(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), http.StatusBadRequest)
}
