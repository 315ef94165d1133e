package service

import (
	"repro/internal/fault"
	"repro/internal/obs"
)

// metricsPlane wires the scheduler's subsystems into an obs.Registry —
// the GET /metrics surface, shared by every instance of a cluster. Two
// kinds of series live here:
//
//   - Views (CounterFunc/GaugeFunc) read existing state at scrape time:
//     the store's aggregates, the session cache's reuse counters, the
//     fault injector's per-site fired counts, the queue depth. No double
//     bookkeeping — the executors' hot path is untouched by their
//     existence.
//
//   - Stage histograms (queue wait, session acquire, restore, execute) and
//     the store's end-to-end latency histograms are recorded inline: one
//     atomic add per observation, no allocation, cheap enough to leave on
//     under full load.
type metricsPlane struct {
	// Per-stage host-latency histograms (nanosecond samples).
	queueWait *obs.Histogram
	acquire   *obs.Histogram
	restore   *obs.Histogram
	execute   *obs.Histogram
}

// newMetricsPlane registers the plane over a fully constructed scheduler
// (store, cache, injector, queue and recorder all exist) on the
// configured registry. A cluster instance's instance label comes first on
// every series, ahead of the series' own kind/defense/site/stage label.
func newMetricsPlane(s *Scheduler) *metricsPlane {
	r := s.cfg.metrics
	if r == nil {
		r = obs.NewRegistry()
	}
	ls := func(own ...obs.Label) []obs.Label {
		if s.cfg.instance == "" {
			return own
		}
		return append([]obs.Label{obs.L("instance", s.cfg.instance)}, own...)
	}
	m := &metricsPlane{}

	st := s.store
	r.CounterFunc("scand_jobs_submitted_total", "Jobs accepted onto the queue.",
		st.counterView(func(st *Store) int { return st.submitted }), ls()...)
	r.CounterFunc("scand_jobs_completed_total", "Jobs finished successfully.",
		st.counterView(func(st *Store) int { return st.completed }), ls()...)
	r.CounterFunc("scand_jobs_failed_total", "Jobs finished in failure.",
		st.counterView(func(st *Store) int { return st.failed }), ls()...)
	r.CounterFunc("scand_jobs_rejected_total", "Submissions rejected (queue full, shed, draining).",
		st.counterView(func(st *Store) int { return st.rejected }), ls()...)
	r.CounterFunc("scand_jobs_shed_total", "Submissions shed by admission control.",
		st.counterView(func(st *Store) int { return st.shedded }), ls()...)
	r.CounterFunc("scand_job_retries_total", "Transient-failure retries scheduled.",
		st.counterView(func(st *Store) int { return st.retries }), ls()...)
	r.CounterFunc("scand_jobs_evicted_total", "Finished jobs dropped by the retention policy.",
		st.counterView(func(st *Store) int { return st.evicted }), ls()...)
	r.GaugeFunc("scand_jobs_retained", "Jobs currently queryable in the store.",
		st.counterView(func(st *Store) int { return len(st.jobs) }), ls()...)
	r.GaugeFunc("scand_queue_depth", "Jobs waiting on the bounded queue.",
		func() float64 { return float64(len(s.queue)) }, ls()...)

	for _, k := range Kinds() {
		k := k
		r.CounterFunc("scand_jobs_finished_total", "Jobs finished (done or failed) per kind.",
			func() float64 { return float64(st.kindFinished(k)) }, ls(obs.L("kind", string(k)))...)
		r.RegisterHistogram("scand_job_latency_seconds",
			"End-to-end job latency (submit to finish) per kind.",
			st.kindLatencyHistogram(k), ls(obs.L("kind", string(k)))...)
	}
	for _, d := range Defenses() {
		d := d
		r.CounterFunc("scand_defense_evals_total", "Completed defense evaluations per defense.",
			func() float64 { return float64(st.defenseCompleted(d)) }, ls(obs.L("defense", d))...)
	}

	cache := s.cache
	r.CounterFunc("scand_sessions_built_total", "Victim sessions booted and calibrated (session-cache misses).",
		func() float64 { return float64(cache.snapshot().SessionMisses) }, ls()...)
	r.CounterFunc("scand_session_hits_total", "Jobs served from a parked cached session.",
		func() float64 { return float64(cache.snapshot().SessionHits) }, ls()...)
	r.CounterFunc("scand_calibrations_reused_total", "Session boots that replayed a cached calibration (calibration-cache hits).",
		func() float64 { return float64(cache.snapshot().CalibrationHits) }, ls()...)
	r.CounterFunc("scand_calibrations_run_total", "Session boots that ran Calibrate from scratch (calibration-cache misses).",
		func() float64 { return float64(cache.snapshot().CalibrationMisses) }, ls()...)
	r.CounterFunc("scand_sessions_quarantined_total", "Sessions condemned and dropped.",
		func() float64 { return float64(cache.snapshot().Quarantined) }, ls()...)
	r.CounterFunc("scand_sessions_evicted_total", "Healthy idle sessions dropped at the cache cap.",
		func() float64 { return float64(cache.snapshot().Evicted) }, ls()...)

	for _, site := range fault.Sites() {
		site := site
		r.CounterFunc("scand_faults_injected_total", "Deterministic faults fired per injection site.",
			func() float64 { return float64(s.inj.Fired(site)) }, ls(obs.L("site", site.String()))...)
	}

	r.GaugeFunc("scand_pool_replicas", "Replicas in the shared scan-engine pool.",
		func() float64 {
			if s.pool == nil {
				return 0
			}
			return float64(s.pool.Replicas())
		}, ls()...)
	r.CounterFunc("scand_traces_started_total", "Job lifecycle traces begun by the recorder.",
		func() float64 { return float64(s.rec.Started()) }, ls()...)
	r.GaugeFunc("scand_traces_retained", "Traces currently held in the bounded ring.",
		func() float64 { return float64(s.rec.Len()) }, ls()...)

	m.queueWait = r.Histogram("scand_stage_seconds", "Host wall-clock per lifecycle stage.", ls(obs.L("stage", "queue"))...)
	m.acquire = r.Histogram("scand_stage_seconds", "", ls(obs.L("stage", "acquire"))...)
	m.restore = r.Histogram("scand_stage_seconds", "", ls(obs.L("stage", "restore"))...)
	m.execute = r.Histogram("scand_stage_seconds", "", ls(obs.L("stage", "execute"))...)
	return m
}
