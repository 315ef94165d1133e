package main

import (
	"fmt"
	"reflect"
	"testing"
)

// victimKey mirrors the service's session key classes: kernelbase, modules
// and defense evaluations share undefended Linux boots, FLARE and FGKASLR
// boots are victims of their own.
func victimKey(s spec) string {
	class, defended := s.Kind, ""
	switch s.Kind {
	case "kernelbase", "modules", "defenseeval":
		class = "linux"
	}
	if s.Defense == "flare" || s.Defense == "fgkaslr" {
		defended = s.Defense
	}
	return fmt.Sprintf("%s|%s|%s|%d|%s|sgx=%v", class, s.CPU, s.Provider, s.Seed, defended, s.SGX)
}

func mustPlan(t *testing.T, workload string, seed uint64, clients int) plan {
	t.Helper()
	p, err := makePlan(workload, seed, 20, clients, clients)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := mustPlan(t, w, 7, 2), mustPlan(t, w, 7, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w)
		}
		c := mustPlan(t, w, 8, 2)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", w)
		}
	}
}

func TestHotSessionsKeysAreFewAndOwnedByOneClient(t *testing.T) {
	for _, clients := range []int{1, 2, 3, 4, 16} {
		p := mustPlan(t, hotSessions, 3, clients)
		for ep, e := range p.epochs {
			owner := map[string]int{}
			warmed := map[string]bool{}
			for c, jobs := range e.warm {
				for _, j := range jobs {
					warmed[victimKey(j.spec)] = true
					owner[victimKey(j.spec)] = c
				}
			}
			for c, jobs := range e.timed {
				for _, j := range jobs {
					k := victimKey(j.spec)
					if !warmed[k] {
						t.Errorf("clients=%d epoch %d: timed key %s was not built in warm-up", clients, ep, k)
					}
					if owner[k] != c {
						t.Errorf("clients=%d epoch %d: key %s used by clients %d and %d", clients, ep, k, owner[k], c)
					}
				}
			}
			if len(owner) != len(sessionEntries) || len(owner) > 16 {
				t.Errorf("clients=%d epoch %d: %d victim keys, want %d (at most the 16-session idle cap)", clients, ep, len(owner), len(sessionEntries))
			}
		}
	}
}

func TestColdBootsNeverRepeatsAVictim(t *testing.T) {
	p := mustPlan(t, coldBoots, 5, 2)
	seen := map[string]bool{}
	n := 0
	for _, e := range p.epochs {
		for _, lists := range [][][]job{e.warm, e.timed} {
			for _, jobs := range lists {
				for _, j := range jobs {
					k := victimKey(j.spec)
					if seen[k] {
						t.Fatalf("victim key %s repeats", k)
					}
					seen[k] = true
					n++
				}
			}
		}
	}
	if want := epochs(coldBoots, 20) * len(sessionEntries) * (coldWarmPerEntry + coldPerEntry); n != want {
		t.Errorf("%d jobs, want %d", n, want)
	}
}

func TestDeepSweepsFanOutOverEveryCPU(t *testing.T) {
	for _, nproc := range []int{1, 2, 8} {
		p := mustPlan(t, deepSweeps, 9, nproc)
		if p.clients != 1 {
			t.Errorf("nproc=%d: %d clients, want 1", nproc, p.clients)
		}
		for _, e := range p.epochs {
			for _, jobs := range append(append([][]job(nil), e.warm...), e.timed...) {
				for _, j := range jobs {
					if j.spec.ScanWorkers == nil || *j.spec.ScanWorkers != nproc {
						t.Fatalf("nproc=%d: job %+v does not ask for %d scan workers", nproc, j.spec, nproc)
					}
					if j.spec.Kind != "windows" && j.spec.Kind != "cloud" {
						t.Fatalf("unexpected kind %q", j.spec.Kind)
					}
				}
			}
		}
	}
}

func TestOrderStat(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if v, beyond := orderStat(xs, 0.9); v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, _ := orderStat(xs, 0.5); v != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", v)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
