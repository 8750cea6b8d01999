package federation

import (
	"context"
	"fmt"

	"pcaps/internal/carbon"
	"pcaps/internal/carbonapi"
)

// Signals supplies the routing-time carbon observations: the current
// intensity of a grid and forecast bounds over a horizon. The two
// implementations are a local trace-backed source (simulation) and an
// HTTP-backed source over the carbonapi service (the prototype's daemon
// path).
type Signals interface {
	Intensity(grid string, at float64) (float64, error)
	Bounds(grid string, at, horizon float64) (lo, hi float64, err error)
}

// TraceSignals reads intensities and bounds straight from local traces —
// the simulation path, exact and allocation-free. Its bounds are the
// trace's window extremes, which the paper treats as exact forecasts
// (§6.1).
type TraceSignals struct {
	Traces map[string]*carbon.Trace
}

func (s *TraceSignals) trace(grid string) (*carbon.Trace, error) {
	t, ok := s.Traces[grid]
	if !ok {
		return nil, fmt.Errorf("federation: no trace for grid %q", grid)
	}
	return t, nil
}

// Intensity implements Signals.
func (s *TraceSignals) Intensity(grid string, at float64) (float64, error) {
	t, err := s.trace(grid)
	if err != nil {
		return 0, err
	}
	return t.At(at), nil
}

// Bounds implements Signals.
func (s *TraceSignals) Bounds(grid string, at, horizon float64) (lo, hi float64, err error) {
	t, err := s.trace(grid)
	if err != nil {
		return 0, 0, err
	}
	lo, hi = t.Bounds(at, horizon)
	return lo, hi, nil
}

// ClientSignals polls a carbonapi HTTP server for every observation —
// the same path the prototype's quota daemon exercises (§5.1), so a
// router in front of live regional feeds is one base URL away.
type ClientSignals struct {
	Client *carbonapi.Client
	// Ctx bounds every request; nil selects context.Background (the
	// client's own HTTP timeout still applies).
	Ctx context.Context
}

func (s *ClientSignals) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// Intensity implements Signals.
func (s *ClientSignals) Intensity(grid string, at float64) (float64, error) {
	return s.Client.Intensity(s.ctx(), grid, at)
}

// Bounds implements Signals.
func (s *ClientSignals) Bounds(grid string, at, horizon float64) (lo, hi float64, err error) {
	return s.Client.Forecast(s.ctx(), grid, at, horizon)
}
