package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// ringKeys builds a synthetic victim-key population shaped like real
// routing keys (kind|cpu|seed tuples).
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("kernelbase|12400F|seed=%d", i)
	}
	return keys
}

// Same ring parameters must yield the same placement for every key, across
// independently built rings — placement is a pure function of
// (instances, replicas, key), never of construction order or run.
func TestRingDeterministicPlacement(t *testing.T) {
	keys := ringKeys(2000)
	a := newRing(4, DefaultHashReplicas)
	b := newRing(4, DefaultHashReplicas)
	counts := make([]int, 4)
	for _, k := range keys {
		ia, ib := a.lookup(k), b.lookup(k)
		if ia != ib {
			t.Fatalf("key %q: placement diverged across identical rings (%d vs %d)", k, ia, ib)
		}
		counts[ia]++
	}
	// Virtual nodes must spread the key space: every instance owns a
	// non-trivial share (the exact split is hash-determined; what matters
	// is that no instance is starved or hot by an order of magnitude).
	for i, c := range counts {
		if c < len(keys)/16 {
			t.Fatalf("instance %d owns only %d/%d keys — ring badly unbalanced: %v", i, c, len(keys), counts)
		}
	}
}

// Growing or shrinking the cluster must remap only a bounded fraction of
// keys — the consistent-hashing contract. A naive mod-N router would move
// ~1-1/N of all keys; the ring must move roughly the 1/N share the
// new (or departed) instance owns.
func TestRingBoundedRemapOnResize(t *testing.T) {
	keys := ringKeys(4000)
	base := newRing(4, DefaultHashReplicas)
	for _, resized := range []int{5, 3} {
		r2 := newRing(resized, DefaultHashReplicas)
		moved := 0
		for _, k := range keys {
			if base.lookup(k) != r2.lookup(k) {
				moved++
			}
		}
		frac := float64(moved) / float64(len(keys))
		if moved == 0 {
			t.Fatalf("resize 4→%d moved no keys — rings are not actually different", resized)
		}
		// Ideal is ~1/5 (grow) and ~1/4 (shrink); allow slack for hash
		// variance but stay far below the ~0.75 a mod-N scheme moves.
		if frac > 0.40 {
			t.Fatalf("resize 4→%d remapped %.0f%% of keys (%d/%d) — want a bounded fraction (<40%%)",
				resized, 100*frac, moved, len(keys))
		}
	}
}

// Routing must be independent of goroutine interleaving: concurrent
// lookups agree with the serial answer (the ring is immutable after
// construction; this is the -race gate for the router's read path).
func TestRingConcurrentLookupMatchesSerial(t *testing.T) {
	keys := ringKeys(512)
	r := newRing(4, DefaultHashReplicas)
	want := make([]int, len(keys))
	for i, k := range keys {
		want[i] = r.lookup(k)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(keys); i += 8 {
				if got := r.lookup(keys[i]); got != want[i] {
					t.Errorf("key %d: concurrent lookup %d != serial %d", i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// The cluster determinism contract: every attack kind submitted through
// the N=4 cluster — at scan workers 0/1/4 × pooled/fresh, two rounds so
// the second submission rides the owning instance's cached session —
// returns a Result bit-identical to the single-scheduler path. Placement
// must never leak into results.
func TestClusterParityWithSingleScheduler(t *testing.T) {
	specs := append(paritySpecs(),
		JobSpec{Kind: KindDefenseEval, CPU: "12400F", Defense: DefenseFLARE, Seed: 49},
		JobSpec{Kind: KindDefenseEval, CPU: "1065G7", Defense: DefenseRerand, Seed: 50, RerandPeriodsSec: []float64{0.01, 1}},
	)
	// Reference: the plain single-scheduler path (itself pinned to direct
	// core.* calls by TestServiceParityWithDirectCalls).
	ref := New(Config{Executors: 2})
	want := make([]*Result, len(specs))
	for i, spec := range specs {
		j, err := ref.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = ref.Wait(j); err != nil {
			t.Fatalf("reference %s: %v", spec.Kind, err)
		}
	}
	ref.Drain()

	for _, workers := range []int{0, 1, 4} {
		for _, fresh := range []bool{false, true} {
			c := NewCluster(ClusterConfig{
				Instances: 4,
				Config:    Config{Executors: 2, ScanWorkers: workers, FreshWorkers: fresh},
			})
			seen := make(map[uint64]bool)
			for round := 0; round < 2; round++ {
				for i, spec := range specs {
					j, err := c.Submit(spec)
					if err != nil {
						t.Fatal(err)
					}
					if seen[j.ID] {
						t.Fatalf("job ID %d issued twice across the cluster", j.ID)
					}
					seen[j.ID] = true
					inst, err := c.RouteSpec(spec)
					if err != nil {
						t.Fatal(err)
					}
					if got := int(j.ID % 4); got != inst {
						t.Fatalf("ID %d: id mod N says instance %d, router says %d", j.ID, got, inst)
					}
					got, err := c.Wait(j)
					if err != nil {
						t.Fatalf("workers=%d fresh=%v round=%d %s: %v", workers, fresh, round, spec.Kind, err)
					}
					if !reflect.DeepEqual(want[i], got) {
						t.Fatalf("workers=%d fresh=%v round=%d: %s cluster result differs from single scheduler\nwant: %+v\ngot:  %+v",
							workers, fresh, round, spec.Kind, want[i], got)
					}
				}
			}
			// Round two re-submitted every spec to the same owner: the
			// cluster as a whole must have reused sessions.
			if st := c.Stats(); st.SessionHits == 0 {
				t.Fatal("second round produced no session hits — affinity is not reaching the caches")
			}
			c.Drain()
		}
	}
}

// Stateful temporal sessions through the cluster: consecutive spy jobs at
// one seed hash to one instance, whose session serves them as consecutive
// windows of one victim timeline — bit-identical to the direct sequence
// and globally ordered (window k starts where k-1 ended).
func TestClusterTemporalAffinityWindows(t *testing.T) {
	spec := JobSpec{Kind: KindBehaviorSpy, Seed: 52, DurationSec: 15}
	const windows = 3
	want := directSpyResults(t, spec, windows, 0)

	c := NewCluster(ClusterConfig{Instances: 4, Config: Config{Executors: 1}})
	defer c.Drain()
	owner := -1
	for w := 0; w < windows; w++ {
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if inst := int(j.ID % 4); owner == -1 {
			owner = inst
		} else if inst != owner {
			t.Fatalf("window %d routed to instance %d, window 0 to %d — affinity broken", w, inst, owner)
		}
		got, err := c.Wait(j)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want[w], got) {
			t.Fatalf("window %d differs from direct sequence\nwant: %+v\ngot:  %+v", w, want[w], got)
		}
		snap, ok := c.JobSnapshot(j.ID)
		if !ok {
			t.Fatalf("window %d vanished from the owner's store", w)
		}
		if w > 0 && !snap.ReusedSession {
			t.Fatalf("window %d did not reuse the owner's stateful session", w)
		}
	}
}

// The affinity win itself: under a zipfian victim skew, hash routing must
// beat shuffled round-robin on cache hit rate — the same victim's jobs
// land on one warm instance instead of cold-booting on all four.
func TestClusterAffinityBeatsShuffledRoundRobin(t *testing.T) {
	specs := mixSpecs([]JobSpec{
		{Kind: KindKernelBase, CPU: "12400F"},
		{Kind: KindKPTI, CPU: "12400F"},
	}, 1, victimAssignment(1, 64, 8, true))
	run := func(route string) Stats {
		c := NewCluster(ClusterConfig{
			Instances: 4,
			Route:     route,
			RouteSeed: 99,
			Config:    Config{Executors: 1, QueueDepth: 256},
		})
		drive(t, c, specs, 4)
		c.Drain()
		st := c.Stats().Stats
		if st.Failed > 0 {
			t.Fatalf("route=%s: %d failed", route, st.Failed)
		}
		return st
	}
	hash := run(RouteHash)
	shuffle := run(RouteShuffle)
	if hash.CacheHitRate() <= shuffle.CacheHitRate() {
		t.Fatalf("affinity did not pay: hash hit rate %.3f (hits=%d boots=%d) <= shuffle %.3f (hits=%d boots=%d)",
			hash.CacheHitRate(), hash.SessionHits, hash.Sessions,
			shuffle.CacheHitRate(), shuffle.SessionHits, shuffle.Sessions)
	}
	if hash.Sessions >= shuffle.Sessions {
		t.Fatalf("hash routing booted %d sessions, shuffle %d — affinity should boot fewer", hash.Sessions, shuffle.Sessions)
	}
}

// clusterChaosRun drives a seed sweep through a cluster whose `target`
// instance runs a sustained fault mix (via the Tune hook) while the rest
// are fault-free, and returns the per-job traces in submission order plus
// each instance's per-site fired counts.
func clusterChaosRun(t *testing.T, target int, specs []JobSpec) ([]jobTrace, [][6]uint64) {
	t.Helper()
	c := NewCluster(ClusterConfig{
		Instances: 4,
		Config:    Config{Executors: 1, QueueDepth: 64},
		Tune: func(i int, cfg Config) Config {
			if i == target {
				cfg.MaxAttempts = 3
				cfg.JobDeadline = -1 // host-speed independence, as in the chaos suite
				cfg.Fault = fault.Config{Seed: 7, Rates: chaosRates()}
			}
			return cfg
		},
	})
	var jobs []*Job
	for i, spec := range specs {
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	traces := make([]jobTrace, len(jobs))
	for i, j := range jobs {
		if _, err := c.Wait(j); err != nil && Classify(err) == "" {
			t.Fatalf("job %d: unclassified error %v", j.ID, err)
		}
		snap, ok := c.JobSnapshot(j.ID)
		if !ok {
			t.Fatalf("job %d vanished", j.ID)
		}
		tr := jobTrace{Status: snap.Status, Err: snap.Err, ErrClass: snap.ErrClass, Attempts: snap.Attempts}
		if snap.Result != nil {
			tr.Retries = snap.Result.Retries
		}
		traces[i] = tr
	}
	fired := make([][6]uint64, c.Instances())
	for i := 0; i < c.Instances(); i++ {
		for _, site := range fault.Sites() {
			fired[i][site] = c.Instance(i).inj.Fired(site)
		}
	}
	c.Drain()
	return traces, fired
}

// Router partial failure: with one instance under a sustained fault mix,
// the healthy instances' jobs complete untouched (no faults, no retries on
// their instances), the faulty instance keeps healing its own key range,
// and identical seeds reproduce identical per-instance traces run over run.
func TestClusterPartialFailureIsolation(t *testing.T) {
	// A seed sweep wide enough that every instance owns some keys.
	var specs []JobSpec
	for seed := uint64(1); seed <= 24; seed++ {
		specs = append(specs, JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: seed})
	}
	probe := NewCluster(ClusterConfig{Instances: 4})
	perInst := make([]int, 4)
	for _, spec := range specs {
		inst, err := probe.RouteSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		perInst[inst]++
	}
	probe.Drain()
	for i, n := range perInst {
		if n == 0 {
			t.Fatalf("seed sweep left instance %d without jobs (placement %v) — widen the sweep", i, perInst)
		}
	}

	const target = 2
	tr1, fired1 := clusterChaosRun(t, target, specs)
	tr2, fired2 := clusterChaosRun(t, target, specs)

	for i := range fired1 {
		if i == target {
			if fired1[i] == ([6]uint64{}) {
				t.Fatal("faulty instance injected nothing — Tune hook not applied")
			}
			continue
		}
		if fired1[i] != ([6]uint64{}) {
			t.Fatalf("healthy instance %d injected faults: %v", i, fired1[i])
		}
	}
	for i, spec := range specs {
		inst, _ := probe.RouteSpec(spec)
		if inst != target {
			if tr1[i].Status != StatusDone || tr1[i].Retries != 0 {
				t.Fatalf("healthy-instance job %d (instance %d) degraded: %+v", i, inst, tr1[i])
			}
		}
	}
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("job %d trace diverged across identically seeded runs:\n run1 %+v\n run2 %+v", i, tr1[i], tr2[i])
		}
	}
	for i := range fired1 {
		if fired1[i] != fired2[i] {
			t.Fatalf("instance %d per-site fault counts diverged: %v vs %v", i, fired1[i], fired2[i])
		}
	}
}

// The cluster rollup must account exactly: merged counters equal the sum
// of per-instance counters, routed counts equal accepted submissions, and
// the merged latency view carries every job.
func TestClusterStatsRollup(t *testing.T) {
	c := NewCluster(ClusterConfig{Instances: 3, Config: Config{Executors: 1}})
	defer c.Drain()
	var jobs []*Job
	for seed := uint64(1); seed <= 12; seed++ {
		for _, spec := range []JobSpec{
			{Kind: KindKernelBase, CPU: "12400F", Seed: seed},
			{Kind: KindModules, CPU: "1065G7", Seed: seed},
		} {
			j, err := c.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	for _, j := range jobs {
		if _, err := c.Wait(j); err != nil {
			t.Fatal(err)
		}
	}

	st := c.Stats()
	if len(st.Instances) != 3 {
		t.Fatalf("rollup has %d instance rows, want 3", len(st.Instances))
	}
	var sub, done, hits, routed int
	for _, row := range st.Instances {
		sub += row.Stats.Submitted
		done += row.Stats.Completed
		hits += row.Stats.SessionHits
		routed += int(row.Routed)
	}
	if st.Submitted != sub || st.Submitted != len(jobs) {
		t.Fatalf("merged submitted %d, instance sum %d, want %d", st.Submitted, sub, len(jobs))
	}
	if st.Completed != done || done != len(jobs) {
		t.Fatalf("merged completed %d, instance sum %d, want %d", st.Completed, done, len(jobs))
	}
	if st.SessionHits != hits {
		t.Fatalf("merged session hits %d, instance sum %d", st.SessionHits, hits)
	}
	if routed != len(jobs) {
		t.Fatalf("router counted %d accepted submissions, want %d", routed, len(jobs))
	}
	if st.SuccessRate != 1 {
		t.Fatalf("success rate %v, want 1", st.SuccessRate)
	}
	if st.JobsPerSec <= 0 || st.P50Ms <= 0 || st.P99Ms < st.P50Ms {
		t.Fatalf("merged latency view implausible: jobs/s=%v p50=%v p99=%v", st.JobsPerSec, st.P50Ms, st.P99Ms)
	}
}

// The cluster /metrics rollup serves instance-labeled series for every
// per-instance signal the ISSUE names: cache hit/miss/evict, queue depth,
// routed counts, job counters, faults and latency histograms.
func TestClusterMetricsInstanceLabels(t *testing.T) {
	c := NewCluster(ClusterConfig{Instances: 2, Config: Config{Executors: 1}})
	defer c.Drain()
	for seed := uint64(1); seed <= 6; seed++ {
		j, err := c.Submit(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(j); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := c.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"scand_cluster_instances 2",
		`scand_router_routed_total{instance="0"}`,
		`scand_router_routed_total{instance="1"}`,
		`scand_queue_depth{instance="0"}`,
		`scand_jobs_submitted_total{instance="0"}`,
		`scand_jobs_completed_total{instance="1"}`,
		`scand_session_hits_total{instance="0"}`,
		`scand_sessions_built_total{instance="1"}`,
		`scand_calibrations_reused_total{instance="0"}`,
		`scand_calibrations_run_total{instance="1"}`,
		`scand_sessions_quarantined_total{instance="0"}`,
		`scand_sessions_evicted_total{instance="0"}`,
		`scand_faults_injected_total{instance="1",site="probe"}`,
		`scand_job_latency_seconds_count{instance=`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("cluster /metrics missing %q\n%s", want, out)
		}
	}
}

// The cluster behind the HTTP handler: same API surface as a single
// scheduler (submit → poll → done), with /stats serving the ClusterStats
// rollup (per-instance rows included) and /metrics the instance-labeled
// exposition. Satellite contract: cache hit/miss surfaces in both.
func TestHTTPClusterEndpoints(t *testing.T) {
	c := NewCluster(ClusterConfig{Instances: 3, Config: Config{Executors: 1}})
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	defer c.Drain()

	var ids []int
	for seed := uint64(1); seed <= 4; seed++ {
		// Two submissions per seed: the repeat must hit the owner's cache.
		for round := 0; round < 2; round++ {
			resp, body := postJSON(t, srv.URL+"/jobs", JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: seed})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: status %d", resp.StatusCode)
			}
			ids = append(ids, int(body["id"].(float64)))
		}
	}
	for _, id := range ids {
		r, err := http.Get(fmt.Sprintf("%s/jobs/%d?wait=30s", srv.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		var job map[string]any
		if err := json.NewDecoder(r.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if job["status"] != string(StatusDone) {
			t.Fatalf("job %d not done over HTTP: %+v", id, job)
		}
	}

	r, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ClusterStats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Submitted != len(ids) || st.Completed != len(ids) {
		t.Fatalf("cluster /stats: submitted=%d completed=%d, want %d", st.Submitted, st.Completed, len(ids))
	}
	if len(st.Instances) != 3 {
		t.Fatalf("cluster /stats has %d instance rows, want 3", len(st.Instances))
	}
	if st.SessionHits == 0 {
		t.Fatal("cluster /stats reports no session hits after repeat submissions")
	}

	r, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !strings.Contains(string(raw), `scand_session_hits_total{instance="`) {
		t.Fatalf("cluster /metrics lacks instance-labeled session hits:\n%s", raw)
	}
}

// The zipfian victim assignment must be a pure function of the config
// (interleaving-independent by construction) and actually skewed: the
// hottest victim draws a multiple of the coldest's share.
func TestZipfianAssignmentDeterministicAndSkewed(t *testing.T) {
	const victims = 8
	a := victimAssignment(5, 1000, victims, true)
	b := victimAssignment(5, 1000, victims, true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("zipfian assignment differs across calls with one config")
	}
	counts := make([]int, victims)
	for _, v := range a {
		if v < 0 || v >= victims {
			t.Fatalf("victim index %d out of pool range", v)
		}
		counts[v]++
	}
	if counts[0] < 3*counts[victims-1] {
		t.Fatalf("distribution not zipfian: hottest %d vs coldest %d (%v)", counts[0], counts[victims-1], counts)
	}
	uni := victimAssignment(1, 10, 4, false)
	for i, v := range uni {
		if v != i%4 {
			t.Fatalf("uniform assignment[%d] = %d, want %d", i, v, i%4)
		}
	}
}

// Submitting the same spec set concurrently or serially must place every
// job on the same instance — routing is a pure function of the spec, so
// goroutine interleaving can never move a key.
func TestClusterRoutingInterleavingIndependent(t *testing.T) {
	c := NewCluster(ClusterConfig{Instances: 4, Config: Config{Executors: 2, QueueDepth: 128}})
	defer c.Drain()
	specs := make([]JobSpec, 32)
	for i := range specs {
		specs[i] = JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: uint64(1 + i%7)}
	}
	want := make([]int, len(specs))
	for i, spec := range specs {
		inst, err := c.RouteSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = inst
	}
	var wg sync.WaitGroup
	placed := make([]int, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			for {
				j, err := c.Submit(spec)
				if err == nil {
					placed[i] = int(j.ID % 4)
					c.Wait(j)
					return
				}
				if Classify(err) == ClassPermanent {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(i, spec)
	}
	wg.Wait()
	for i := range specs {
		if placed[i] != want[i] {
			t.Fatalf("spec %d placed on instance %d under concurrency, serial routing says %d", i, placed[i], want[i])
		}
	}
}

// A one-instance cluster is exactly New(cfg): under the serialized chaos
// config it must issue the same job IDs and produce the same results,
// canonical span trees and per-site fault counts as a plain scheduler —
// no fault-seed split, no ID reshaping — and its /metrics must carry no
// instance label.
func TestClusterOneInstanceTraceParity(t *testing.T) {
	cfg := Config{
		Executors:   1,
		QueueDepth:  64,
		MaxAttempts: 3,
		JobDeadline: -1, // serialized determinism needs no watchdog races
		TraceSample: 1,
		Fault:       fault.Config{Seed: 7, Rates: chaosRates()},
	}
	type outcome struct {
		ID       uint64
		Status   Status
		Err      string
		ErrClass ErrorClass
		Attempts int
		Result   *Result
		Trace    string
	}
	// The read surface both a Scheduler and a Cluster serve.
	type surface interface {
		Submit(JobSpec) (*Job, error)
		JobSnapshot(uint64) (Job, bool)
		Trace(uint64) (*obs.Trace, bool)
		Drain()
	}
	run := func(s surface, inst *Scheduler) ([]outcome, [6]uint64) {
		t.Helper()
		defer s.Drain()
		var jobs []*Job
		for i, spec := range chaosTraceSpecs() {
			j, err := s.Submit(spec)
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			jobs = append(jobs, j)
		}
		out := make([]outcome, len(jobs))
		for i, j := range jobs {
			<-j.Done()
			snap, ok := s.JobSnapshot(j.ID)
			if !ok {
				t.Fatalf("job %d vanished", j.ID)
			}
			tr, ok := s.Trace(j.ID)
			if !ok {
				t.Fatalf("job %d: no trace at sample rate 1", j.ID)
			}
			b, err := tr.CanonicalJSON()
			if err != nil {
				t.Fatalf("job %d: canonical: %v", j.ID, err)
			}
			out[i] = outcome{j.ID, snap.Status, snap.Err, snap.ErrClass, snap.Attempts, snap.Result, string(b)}
		}
		var fired [6]uint64
		for _, site := range fault.Sites() {
			fired[site] = inst.inj.Fired(site)
		}
		return out, fired
	}
	s := New(cfg)
	want, wantFired := run(s, s)
	c := NewCluster(ClusterConfig{Config: cfg})
	got, gotFired := run(c, c.Instance(0))

	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("job %d diverged from New(cfg):\n scheduler %+v\n cluster   %+v", i, want[i], got[i])
		}
	}
	if wantFired != gotFired {
		t.Fatalf("per-site fault counts diverged: scheduler %v, cluster %v", wantFired, gotFired)
	}
	if wantFired == ([6]uint64{}) {
		t.Fatal("chaos run injected nothing")
	}
	var sb strings.Builder
	if err := c.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); strings.Contains(out, "instance=") {
		t.Fatalf("one-instance /metrics carries an instance label:\n%s", out)
	}
}

// With N > 1 every instance registers its whole metrics plane on the
// cluster registry, instance label first: the per-kind, stage, shed and
// trace series a single scheduler serves exist once per instance.
func TestClusterMetricsFullPlanePerInstance(t *testing.T) {
	c := NewCluster(ClusterConfig{Instances: 2, Config: Config{Executors: 1, TraceSample: 1}})
	defer c.Drain()
	for seed := uint64(1); seed <= 6; seed++ {
		j, err := c.Submit(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(j); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := c.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, inst := range []string{"0", "1"} {
		for _, want := range []string{
			`scand_job_latency_seconds_count{instance="` + inst + `",kind="kernelbase"}`,
			`scand_stage_seconds_count{instance="` + inst + `",stage="execute"}`,
			`scand_jobs_shed_total{instance="` + inst + `"} 0`,
			`scand_traces_started_total{instance="` + inst + `"}`,
			`scand_defense_evals_total{instance="` + inst + `",defense="flare"} 0`,
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("cluster /metrics missing %q\n%s", want, out)
			}
		}
	}
	if strings.Contains(out, "\nscand_jobs_submitted_total ") {
		t.Fatalf("N=2 /metrics carries an unlabeled plane series:\n%s", out)
	}
}
