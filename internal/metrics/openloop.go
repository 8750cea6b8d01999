package metrics

import (
	"math"
	"sort"
)

// Open-loop queueing metrics: under an open-loop arrival process the
// cluster cannot push back on submissions, so the interesting questions
// become how deep the backlog of in-flight jobs grows, how long jobs
// spend queued beyond their inherent critical path, and what fraction
// of the offered work the cluster actually absorbs over the horizon.
// These are the columns of the overload artifact (DESIGN.md §9).

// Backlog reconstructs the number of in-flight jobs over time from the
// per-job arrival and completion times (completions[i] corresponds to
// arrivals[i]). The result is a right-continuous step function sampled
// at every event: Points[k].Y is the backlog immediately after the
// event at Points[k].X. At equal times, completions are applied before
// arrivals, so a job handed off exactly as another arrives never
// inflates the peak.
func Backlog(arrivals, completions []float64) []Point {
	type event struct {
		t     float64
		delta int
	}
	evs := make([]event, 0, len(arrivals)+len(completions))
	for _, t := range arrivals {
		evs = append(evs, event{t, +1})
	}
	for _, t := range completions {
		evs = append(evs, event{t, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].delta < evs[j].delta // completions first
	})
	out := make([]Point, 0, len(evs))
	depth := 0
	for _, e := range evs {
		depth += e.delta
		if n := len(out); n > 0 && out[n-1].X == e.t {
			out[n-1].Y = float64(depth)
			continue
		}
		out = append(out, Point{X: e.t, Y: float64(depth)})
	}
	return out
}

// BacklogStats reduces a backlog step function to its peak and its
// time-weighted mean over [first event, last event]. A single event (or
// none) has zero duration and yields a zero mean.
func BacklogStats(steps []Point) (mean, peak float64) {
	for _, p := range steps {
		if p.Y > peak {
			peak = p.Y
		}
	}
	if len(steps) < 2 {
		return 0, peak
	}
	var area float64
	for i := 1; i < len(steps); i++ {
		area += steps[i-1].Y * (steps[i].X - steps[i-1].X)
	}
	span := steps[len(steps)-1].X - steps[0].X
	if span <= 0 {
		return 0, peak
	}
	return area / span, peak
}

// OpenLoop summarizes one run of an open-loop batch.
type OpenLoop struct {
	// MeanBacklog and PeakBacklog characterize the in-flight job count:
	// time-weighted mean and maximum depth.
	MeanBacklog, PeakBacklog float64
	// P50JCT and P99JCT are job-completion-time quantiles in seconds
	// (sojourn time: completion − arrival).
	P50JCT, P99JCT float64
	// MeanQueueDelay is the mean excess of JCT over the job's ideal
	// lower bound (its critical-path length): time attributable to
	// queueing and contention rather than the job's own serial work.
	MeanQueueDelay float64
	// GoodputJobsPerHr is the completion rate over the batch's active
	// span (first arrival to last completion), in jobs per hour of
	// experiment time. Under overload it saturates at the cluster's
	// service capacity while the offered rate keeps climbing.
	GoodputJobsPerHr float64
}

// SummarizeOpenLoop computes the open-loop summary from parallel
// per-job slices: arrival times, job completion times (JCTs as sojourn
// times, the simulator's convention), and each job's critical-path
// length (the zero-contention lower bound on its JCT).
func SummarizeOpenLoop(arrivals, jcts, criticalPaths []float64) OpenLoop {
	n := len(jcts)
	if n == 0 {
		return OpenLoop{}
	}
	completions := make([]float64, n)
	var delay float64
	lastDone := math.Inf(-1)
	for i := 0; i < n; i++ {
		completions[i] = arrivals[i] + jcts[i]
		if completions[i] > lastDone {
			lastDone = completions[i]
		}
		delay += jcts[i] - criticalPaths[i]
	}
	mean, peak := BacklogStats(Backlog(arrivals, completions))
	s := OpenLoop{
		MeanBacklog:    mean,
		PeakBacklog:    peak,
		P50JCT:         Quantile(jcts, 0.50),
		P99JCT:         Quantile(jcts, 0.99),
		MeanQueueDelay: delay / float64(n),
	}
	span := lastDone - arrivals[0]
	if span > 0 {
		s.GoodputJobsPerHr = float64(n) / span * 3600
	}
	return s
}
