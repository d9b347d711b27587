package history

import (
	"time"

	"repro/internal/telemetry"
)

// storeMetrics are the history_* series, registered once per store
// against the configured registry.
type storeMetrics struct {
	stored          *telemetry.Counter
	deduped         *telemetry.Counter
	skipped         *telemetry.Counter
	sealed          *telemetry.Counter
	retired         *telemetry.Counter
	compactedEvents *telemetry.Counter
	vantageOverflow *telemetry.Counter

	queryState   *telemetry.Counter
	queryBetween *telemetry.Counter
	queryDiff    *telemetry.Counter
	querySeconds *telemetry.Histogram
}

// observeQuery counts a query against c and records its latency.
func (m *storeMetrics) observeQuery(c *telemetry.Counter, start time.Time) {
	c.Inc()
	m.querySeconds.Observe(time.Since(start).Seconds())
}

func newStoreMetrics(reg *telemetry.Registry) storeMetrics {
	if reg == nil {
		reg = telemetry.Default()
	}
	queryBuckets := []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}
	return storeMetrics{
		stored:          reg.Counter("history_stored_total"),
		deduped:         reg.Counter("history_dedup_total"),
		skipped:         reg.Counter("history_skipped_total"),
		sealed:          reg.Counter("history_segments_sealed_total"),
		retired:         reg.Counter("history_segments_retired_total"),
		compactedEvents: reg.Counter("history_compacted_events_total"),
		vantageOverflow: reg.Counter("history_vantage_overflow_total"),
		queryState:      reg.Counter("history_queries_total", telemetry.L("kind", "state")),
		queryBetween:    reg.Counter("history_queries_total", telemetry.L("kind", "between")),
		queryDiff:       reg.Counter("history_queries_total", telemetry.L("kind", "diff")),
		querySeconds:    reg.Histogram("history_query_seconds", queryBuckets),
	}
}
