package service

import "testing"

// cheapMix is a load mix of the fast kinds (for race-detector runs).
func cheapMix() []JobSpec {
	return []JobSpec{
		{Kind: KindKernelBase, CPU: "12400F"},
		{Kind: KindKPTI, CPU: "12400F"},
		{Kind: KindUserScan, CPU: "1065G7", EntropyBits: 10},
		{Kind: KindKernelBase, CPU: "5600X"},
	}
}

// The service must sustain a deep concurrent mixed workload — ≥64
// concurrent submitters against pooled sessions and shared scan replicas —
// with every job accounted for. Run under -race (make test-race / make ci)
// this is the service's data-race gate.
func TestLoadConcurrentMixedWorkload(t *testing.T) {
	s := NewCluster(ClusterConfig{Config: Config{Executors: 8, QueueDepth: 32, ScanWorkers: 2}})
	const jobs = 96
	drive(t, s, mixSpecs(cheapMix(), 100, victimAssignment(100, jobs, 16, false)), 64)
	s.Drain()

	st := s.Stats()
	if st.Completed+st.Failed != jobs {
		t.Fatalf("accounted %d+%d jobs, want %d", st.Completed, st.Failed, jobs)
	}
	if st.Failed != 0 {
		t.Fatalf("%d jobs failed", st.Failed)
	}
	if st.SuccessRate < 0.95 {
		t.Fatalf("success rate %.3f too low", st.SuccessRate)
	}
	if st.JobsPerSec <= 0 || st.P50Ms <= 0 || st.P99Ms < st.P50Ms {
		t.Fatalf("degenerate latency stats: %+v", st)
	}
	if st.Sessions == 0 {
		t.Fatal("no sessions were built")
	}
	// The pool must have been exercised and the session cache must have
	// amortized calibrations: far fewer sessions than jobs.
	if st.PoolReplicas == 0 {
		t.Fatal("shared scan pool was never used")
	}
	if st.Sessions >= jobs {
		t.Fatalf("built %d sessions for %d jobs — session reuse broken", st.Sessions, jobs)
	}
}

// Drain must finish queued work, then reject new submissions.
func TestDrainFinishesQueuedJobs(t *testing.T) {
	s := New(Config{Executors: 2, QueueDepth: 16})
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(JobSpec{Kind: KindKernelBase, CPU: "12400F", Seed: uint64(200 + i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Drain()
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %d not finished after Drain", j.ID)
		}
		snap, _ := s.Store().Snapshot(j.ID)
		if snap.Status != StatusDone {
			t.Fatalf("job %d status %q after drain", j.ID, snap.Status)
		}
	}
	if _, err := s.Submit(JobSpec{Kind: KindKernelBase, Seed: 1}); err != ErrDraining {
		t.Fatalf("submit after drain: err %v, want ErrDraining", err)
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("rejected count %d, want 1", s.Stats().Rejected)
	}
}

// A full queue must reject with ErrQueueFull, not block: one executor
// working 2^18-slot Windows scans cannot keep up with a tight submit loop.
func TestBoundedQueueBackpressure(t *testing.T) {
	s := New(Config{Executors: 1, QueueDepth: 2})
	defer s.Drain()
	sawFull := false
	for i := 0; i < 64 && !sawFull; i++ {
		_, err := s.Submit(JobSpec{Kind: KindWindows, CPU: "12400F", Seed: uint64(300 + i)})
		if err == ErrQueueFull {
			sawFull = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("64 instant submissions never hit the bounded queue")
	}
}

// Invalid specs must be rejected at submission, not at execution.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{Executors: 1})
	defer s.Drain()
	for _, spec := range []JobSpec{
		{Kind: "frobnicate"},
		{Kind: KindCloud, Provider: "dc1"},
		{Kind: KindKernelBase, CPU: "no-such-cpu"},
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Fatalf("spec %+v was accepted", spec)
		}
	}
}
