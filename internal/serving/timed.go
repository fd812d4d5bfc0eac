package serving

import "sushi/internal/sched"

// Timed serving data types — the ONE authoritative note on where
// open-loop queueing lives. This file defines only the data shapes
// (TimedQuery in, TimedServed out, TimedSummary); the
// queueing semantics themselves — FIFO arrival-order service, bounded
// queues, admission control, load-aware budget debiting, and the
// micro-batch former (flush on full batch or window expiry) — live in
// exactly one place: the virtual-time discrete-event engine in
// internal/simq. Callers build an engine with simq.New, FromCluster or
// NewSingle and call Run (surfaced publicly as sushi.Cluster.Simulate).
// There is no wall-clock queueing loop anywhere in this package.

// TimedQuery is a query with an arrival time (seconds since stream start).
type TimedQuery struct {
	sched.Query
	// Arrival is when the query enters the queue.
	Arrival float64
}

// TimedServed is the outcome of one timed query: service outcome plus
// queueing telemetry.
type TimedServed struct {
	Served
	// Arrival, Start, Finish are absolute times; QueueDelay = Start-Arrival.
	Arrival, Start, Finish, QueueDelay float64
	// E2ELatency is Finish-Arrival (queueing + service).
	E2ELatency float64
	// Dropped reports the query was abandoned — its deadline passed
	// before service could begin, or admission control rejected or shed
	// it (§1's transient-overload failure mode). Dropped queries have a
	// zero Served.
	Dropped bool
}

// TimedSummary aggregates a timed session.
type TimedSummary struct {
	// Queries, Served, Dropped count the stream.
	Queries, ServedCount, Dropped int
	// AvgE2E and AvgQueueDelay are in seconds (served queries only).
	AvgE2E, AvgQueueDelay float64
	// E2ESLO is the fraction of all queries (dropped count as misses)
	// finishing within their original budget.
	E2ESLO float64
	// AvgAccuracy is over served queries.
	AvgAccuracy float64
}

// SummarizeTimed folds a timed session.
func SummarizeTimed(rs []TimedServed) TimedSummary {
	var s TimedSummary
	s.Queries = len(rs)
	if len(rs) == 0 {
		return s
	}
	met := 0
	for _, r := range rs {
		if r.Dropped {
			s.Dropped++
			continue
		}
		s.ServedCount++
		s.AvgE2E += r.E2ELatency
		s.AvgQueueDelay += r.QueueDelay
		s.AvgAccuracy += r.Accuracy
		if r.LatencyMet {
			met++
		}
	}
	if s.ServedCount > 0 {
		s.AvgE2E /= float64(s.ServedCount)
		s.AvgQueueDelay /= float64(s.ServedCount)
		s.AvgAccuracy /= float64(s.ServedCount)
	}
	s.E2ESLO = float64(met) / float64(len(rs))
	return s
}
