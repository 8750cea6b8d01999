package carbonapi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"

	"pcaps/internal/sched"
	"pcaps/internal/sim"
)

// PlacementRequest is the body of POST /v1/placement: a policy (or a
// batch of policies) to evaluate against one serialized cluster
// snapshot. Exactly one of Policy and Policies must be set; a single
// policy answers with the bare decision, a batch with a
// PlacementResponse envelope in request order.
type PlacementRequest struct {
	// Policy is the deciding policy for a single-decision request.
	Policy *sched.Spec `json:"policy,omitempty"`
	// Policies asks for one independent decision per entry — each
	// policy sees the same snapshot, so the batch is a comparison, not
	// a sequence.
	Policies []sched.Spec `json:"policies,omitempty"`
	// Seed drives the stochastic policies' sampling (default 0).
	Seed int64 `json:"seed,omitempty"`
	// Snapshot is the scheduler-visible cluster state to decide on
	// (sim.Cluster.Snapshot's export).
	Snapshot *sim.Snapshot `json:"snapshot"`
}

// PlacementResponse is the batch envelope of POST /v1/placement.
type PlacementResponse struct {
	Decisions []sim.Placement `json:"decisions"`
}

// ErrInvalidPlacement marks a placement request the backend rejected
// before deciding anything (unknown policy, bad parameter, malformed
// snapshot); the handler answers 400 instead of 500 when a returned
// error wraps it. Rejection messages name the offending request field.
var ErrInvalidPlacement = errors.New("invalid placement request")

// Placements is the backend of POST /v1/placement (typically
// placement.Service). Implementations must be safe for concurrent
// Place calls — the server imposes no request serialization.
type Placements interface {
	// Place decides one placement per requested policy, in request
	// order. Rejections wrap ErrInvalidPlacement.
	Place(ctx context.Context, req *PlacementRequest) ([]sim.Placement, error)
}

// WithPlacements enables POST /v1/placement, backed by p (typically
// placement.Service).
func WithPlacements(p Placements) Option {
	return func(s *Server) { s.placements = p }
}

// maxPlacementBytes bounds one POSTed placement request. Snapshots
// embed their whole carbon trace (the green signals are functions of
// absolute trace time), so realistic requests reach a few hundred
// kilobytes; anything near this cap is a mistake or abuse.
const maxPlacementBytes = 8 << 20

func (s *Server) handlePlacement(w http.ResponseWriter, r *http.Request) {
	if s.placements == nil {
		http.Error(w, "placement service not enabled", http.StatusNotFound)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPlacementBytes+1))
	if err != nil {
		badRequest(w, badParam("body", "reading placement request: %v", err))
		return
	}
	if len(body) > maxPlacementBytes {
		http.Error(w, fmt.Sprintf("placement request exceeds %d bytes", maxPlacementBytes), http.StatusRequestEntityTooLarge)
		return
	}
	// Strict: a misspelled field would otherwise silently fall back to a
	// default (e.g. "gama" running γ=0.5); it is rejected by name.
	req, perr := decodePlacement(body)
	if perr != nil {
		badRequest(w, perr)
		return
	}
	single := req.Policy != nil
	if single == (len(req.Policies) > 0) {
		badRequest(w, badParam("policy", "exactly one of policy and policies must be set"))
		return
	}
	decisions, err := s.placements.Place(r.Context(), req)
	if err != nil {
		if errors.Is(err, ErrInvalidPlacement) {
			badRequest(w, err)
			return
		}
		log.Printf("carbonapi: placing: %v", err)
		http.Error(w, fmt.Sprintf("placing: %v", err), http.StatusInternalServerError)
		return
	}
	if single {
		writeJSON(w, decisions[0])
		return
	}
	writeJSON(w, PlacementResponse{Decisions: decisions})
}
