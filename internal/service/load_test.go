package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// DefaultMix is the standard mixed-scenario workload: every attack family
// but the Windows scan, both vendors, bare metal and SGX, the stateful
// temporal kinds and the defense evaluations. Seeds are assigned per
// submission.
func DefaultMix() []JobSpec {
	return []JobSpec{
		{Kind: KindKernelBase, CPU: "12400F"},
		{Kind: KindKernelBase, CPU: "5600X"}, // AMD term-level sweep
		{Kind: KindKPTI, CPU: "12400F"},
		{Kind: KindModules, CPU: "1065G7"},
		{Kind: KindUserScan, CPU: "1065G7"},
		{Kind: KindUserScan, CPU: "1065G7", SGX: true},
		{Kind: KindKernelBase, CPU: "9900"}, // Coffee Lake victim
		{Kind: KindCloud, Provider: "gce"},
		// Temporal kinds: stateful sessions whose victim timeline advances
		// one window per job (repeat seeds continue the same timeline).
		{Kind: KindBehaviorSpy, CPU: "1065G7", DurationSec: 10},
		{Kind: KindAppFingerprint, CPU: "1065G7", App: "fps-game"},
		// Defense evaluations: the rerand entry shares its undefended boot
		// with kernelbase jobs of the same CPU/seed; flare and fgkaslr boot
		// defended victims with their own sessions and calibrations.
		{Kind: KindDefenseEval, CPU: "12400F", Defense: DefenseFLARE},
		{Kind: KindDefenseEval, CPU: "12400F", Defense: DefenseFGKASLR},
		{Kind: KindDefenseEval, CPU: "1065G7", Defense: DefenseRerand, RerandPeriodsSec: []float64{0.0001, 0.01, 1}},
	}
}

// victimAssignment maps job index → victim pool index. Uniform cycles the
// pool (job i → i mod victims); zipfian draws from a seeded zipf law
// (exponent 1.07, rank 0 hottest), so a few hot victims dominate — the skew
// where victim-key-affinity routing pays. The assignment is a pure
// function of its arguments, so submitter interleaving can reorder
// submissions but never change which victim a job scans.
func victimAssignment(seed uint64, jobs, victims int, zipfian bool) []int {
	out := make([]int, jobs)
	if !zipfian {
		for i := range out {
			out[i] = i % victims
		}
		return out
	}
	const s = 1.07
	cdf := make([]float64, victims)
	var total float64
	for r := range cdf {
		total += 1 / math.Pow(float64(r+1), s)
		cdf[r] = total
	}
	src := rng.New(seed ^ 0x21bfa90d)
	for i := range out {
		out[i] = sort.SearchFloat64s(cdf, src.Float64()*total)
	}
	return out
}

// mixSpecs builds len(victimOf) jobs rotating through mix, job i against
// victim seed + victimOf[i].
func mixSpecs(mix []JobSpec, seed uint64, victimOf []int) []JobSpec {
	specs := make([]JobSpec, len(victimOf))
	for i, v := range victimOf {
		specs[i] = mix[i%len(mix)]
		specs[i].Seed = seed + uint64(v)
	}
	return specs
}

// drive submits every spec from conc concurrent submitters, each keeping
// one job in flight: a submission the cluster pushes back on (a transient
// error: queue full, shed) is retried after a short pause, and an accepted
// job is waited for before the submitter takes the next spec. A permanent
// submit error fails the test; job failures are left to the caller's
// stats checks.
func drive(t *testing.T, c *Cluster, specs []JobSpec, conc int) {
	t.Helper()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
				j, err := c.Submit(specs[i])
				for Classify(err) == ClassTransient {
					time.Sleep(200 * time.Microsecond)
					j, err = c.Submit(specs[i])
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("submit %+v: %w", specs[i], err))
					mu.Unlock()
					return
				}
				_, _ = c.Wait(j) // failed jobs show up in the caller's stats
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}
	if len(errs) > 0 {
		t.FailNow()
	}
}

// The daemon API serves every kind of the mixed workload end to end, on one
// instance and behind the router: each DefaultMix entry at two seeds is
// posted over HTTP, long-polled to done, and /stats reports no failure.
func TestHTTPServesDefaultMix(t *testing.T) {
	mix := DefaultMix()
	inMix := make(map[Kind]bool)
	for _, spec := range mix {
		inMix[spec.Kind] = true
	}
	for _, k := range Kinds() {
		if inMix[k] == (k == KindWindows) {
			t.Fatalf("DefaultMix must cover every kind but windows; kind %s in mix = %v", k, inMix[k])
		}
	}

	for _, n := range []int{1, 2} {
		serveMix(t, n, mix)
	}
}

// serveMix runs TestHTTPServesDefaultMix against an n-instance cluster.
func serveMix(t *testing.T, n int, mix []JobSpec) {
	t.Helper()
	c := NewCluster(ClusterConfig{Instances: n, Config: Config{Executors: 2, ScanWorkers: 2, QueueDepth: 64}})
	defer c.Drain()
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	var ids []int
	for _, seed := range []uint64{11, 12} {
		for _, spec := range mix {
			spec.Seed = seed
			resp, body := postJSON(t, srv.URL+"/jobs", spec)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("n=%d: submit %+v: status %d %v", n, spec, resp.StatusCode, body)
			}
			ids = append(ids, int(body["id"].(float64)))
		}
	}
	deadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		for {
			var job Job
			getJSON(t, srv.URL+"/jobs/"+itoa(id)+"?wait=10s", &job)
			if job.Status == StatusDone {
				break
			}
			if job.Status == StatusFailed || time.Now().After(deadline) {
				t.Fatalf("n=%d: job %d (%+v) ended %s: %s", n, id, job.Spec, job.Status, job.Err)
			}
		}
	}
	var st ClusterStats
	getJSON(t, srv.URL+"/stats", &st)
	if st.Failed != 0 || st.Completed != len(ids) {
		t.Fatalf("n=%d: /stats completed %d failed %d, want %d/0", n, st.Completed, st.Failed, len(ids))
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, r.StatusCode)
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
