// Command scand is the attack-as-a-service daemon: it serves the job
// scheduler cluster of internal/service over HTTP, multiplexing concurrent attack
// jobs (kernel base, KPTI, modules, Windows, §IV-F user scan, cloud
// scenarios, the stateful §IV-E behaviorspy / appfingerprint kinds whose
// per-victim sessions carry a timeline across jobs, and the defenseeval
// kind evaluating a §V countermeasure — flare | fgkaslr | rerand |
// maskedop — against its attack on a defense-configured boot) across
// executor goroutines that share calibrated sessions and one scan-engine
// worker pool. A job may pin its own sweep parallelism with "scan_workers"; the
// result store is bounded (-store-max-jobs, -store-ttl) so a long-lived
// daemon's memory stays flat while the aggregate stats keep counting.
//
// The scheduler self-heals: transient failures (injected faults, watchdog
// deadline overruns, panics, corrupt sessions) retry with capped
// exponential backoff up to -max-attempts, a per-attempt watchdog fails
// jobs that overrun -job-deadline, panicking jobs are isolated and their
// sessions quarantined (a fresh boot rebuilds them bit-identically via the
// calibration cache), and -shed-watermark enables admission control (429 +
// Retry-After before the queue fills). -fault-seed/-fault-rate drive a
// deterministic chaos run: the whole fault schedule is a pure function of
// the seed.
//
// The daemon serves a service.Cluster of -cluster N independent
// scheduler instances — each with its own queue, executors, scan pool,
// session/calibration caches, fault injector and metrics plane — behind a
// consistent-hash router. The default (-cluster 0 or 1) is one instance,
// which behaves exactly like a single scheduler. With N > 1, jobs are
// placed by victim key (-hash-replicas virtual nodes per instance), so
// every job against one victim lands on the instance whose caches already
// hold that victim's session and calibration; -route shuffle swaps in the
// victim-blind shuffled round-robin baseline (the affinity ablation, over
// a fixed instance permutation). The HTTP API is the same at every N:
// /stats returns the merged aggregate plus one row per instance, and
// /metrics carries an instance label on every series when N > 1.
//
//	scand [-addr :8440] [-executors N] [-scan-workers N] [-queue N] [-fresh]
//	      [-store-max-jobs N] [-store-ttl D] [-pprof localhost:6060]
//	      [-max-attempts N] [-job-deadline D] [-shed-watermark N]
//	      [-fault-seed N -fault-rate P] [-trace-sample N] [-trace-buffer N]
//	      [-cluster N] [-hash-replicas N] [-route hash|shuffle]
//
// The observability plane is always on for metrics and opt-in for traces:
// GET /metrics serves Prometheus text (per-kind/per-defense/per-site
// labels, queue depth, stage and latency histograms) at O(buckets) cost per
// scrape, and -trace-sample N records every Nth job's full lifecycle —
// queue wait, session acquire (cache hit/miss), restore, execute, retries,
// backoffs, fault and quarantine annotations — into a bounded ring
// (-trace-buffer), served as JSON or an ASCII timeline from
// GET /jobs/{id}/trace. With -trace-sample 0 the recorder is nil and the
// instrumented path costs one nil check per stage.
//
// -pprof serves net/http/pprof from its own mux on a side listener, so
// CPU/heap profiles of a live daemon never share a port with the job API.
// The job API rejects unknown spec fields and bodies over a fixed cap with
// 400, and its server bounds header, request and idle time.
//
//	POST /jobs       {"kind":"kernelbase","cpu":"12400F","seed":7}  → {"id":1}
//	POST /jobs       {"kind":"behaviorspy","seed":7,"duration_sec":20}
//	POST /jobs       {"kind":"appfingerprint","seed":7,"app":"fps-game","scan_workers":4}
//	POST /jobs       {"kind":"defenseeval","defense":"flare","seed":7}
//	POST /jobs       {"kind":"defenseeval","defense":"rerand","seed":7,"rerand_periods_sec":[0.001,0.1]}
//	GET  /jobs/1     status + result
//	GET  /jobs/1/trace          sampled lifecycle span tree (JSON)
//	GET  /jobs/1/trace?format=ascii  the same trace as an ASCII timeline
//	GET  /stats      success rate, jobs/s, p50/p99 latency, reuse counters
//	GET  /metrics    Prometheus text exposition
//	POST /drain      graceful drain (finish queued work, refuse new jobs)
//
// SIGINT/SIGTERM also drain before exiting. End-to-end throughput and
// latency are measured from outside, over this API, by the scandbench
// module (bash scandbench/run.sh).
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

// Job-API server timeouts. There is deliberately no write timeout, and the
// read timeout exceeds service.MaxWaitPoll: the read deadline stays armed
// while a handler runs, and when it expires net/http cancels the request
// context, which would cut a GET /jobs/{id}?wait= long poll short.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 2 * service.MaxWaitPoll
	idleTimeout       = 2 * time.Minute
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags and serves the daemon until it drains; split from main
// for tests.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("scand", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8440", "daemon listen address")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060; empty = off)")
		executors   = fs.Int("executors", 0, "concurrent job executors (0 = GOMAXPROCS)")
		scanWorkers = fs.Int("scan-workers", 0, "scan-engine workers per job (0 = inline, negative = all CPUs)")
		queue       = fs.Int("queue", 64, "bounded job-queue depth")
		fresh       = fs.Bool("fresh", false, "disable the shared scan pool (fresh replicas per sweep)")
		storeMax    = fs.Int("store-max-jobs", 0, "finished jobs retained in the result store (0 = default bound, negative = unbounded)")
		storeTTL    = fs.Duration("store-ttl", 0, "evict finished jobs older than this (0 = no TTL)")
		maxAttempts = fs.Int("max-attempts", 0, "attempts per job before a transient failure is final (0 = 3, 1 = no retries)")
		jobDeadline = fs.Duration("job-deadline", 0, "per-attempt watchdog deadline (0 = 2m default, negative = disabled)")
		shedMark    = fs.Int("shed-watermark", 0, "shed submissions when the queue holds this many jobs (0 = off)")
		faultSeed   = fs.Uint64("fault-seed", 0, "deterministic fault-injection seed (chaos runs)")
		faultRate   = fs.Float64("fault-rate", 0, "uniform per-site fault probability in [0,1] (0 = injection off)")
		traceSample = fs.Int("trace-sample", 0, "record every Nth job's lifecycle trace (1 = every job, 0 = tracing off)")
		traceBuffer = fs.Int("trace-buffer", 0, "retained traces in the bounded ring (0 = 256)")
		clusterN    = fs.Int("cluster", 0, "shard into N scheduler instances behind the consistent-hash router (0/1 = one instance)")
		hashReps    = fs.Int("hash-replicas", 0, "cluster: virtual nodes per instance on the hash ring (0 = default)")
		route       = fs.String("route", "hash", "cluster: routing policy — hash (victim-key affinity) or shuffle (victim-blind baseline)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cfg := service.Config{
		Executors:     *executors,
		QueueDepth:    *queue,
		ScanWorkers:   *scanWorkers,
		FreshWorkers:  *fresh,
		Store:         service.StoreConfig{MaxJobs: *storeMax, TTL: *storeTTL},
		MaxAttempts:   *maxAttempts,
		JobDeadline:   *jobDeadline,
		ShedWatermark: *shedMark,
		Fault:         service.FaultConfig(*faultSeed, *faultRate),
		TraceSample:   *traceSample,
		TraceBuffer:   *traceBuffer,
	}
	if *route != service.RouteHash && *route != service.RouteShuffle {
		fmt.Fprintf(stderr, "scand: unknown -route %q (want hash or shuffle)\n", *route)
		return 2
	}

	c := service.NewCluster(service.ClusterConfig{
		Instances:    *clusterN,
		HashReplicas: *hashReps,
		Route:        *route,
		Config:       cfg,
	})
	topo := "one instance"
	if n := c.Instances(); n > 1 {
		topo = fmt.Sprintf("cluster n=%d route=%s", n, *route)
	}
	if *faultRate > 0 {
		fmt.Fprintf(stdout, "scand: CHAOS — injecting faults at rate %g per site, seed %d (deterministic)\n", *faultRate, *faultSeed)
	}

	if *pprofAddr != "" {
		// A side listener with its own mux: profiles never share a port
		// with the job API.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
		go func() {
			if err := psrv.ListenAndServe(); err != nil {
				fmt.Fprintf(stderr, "scand: pprof listener: %v\n", err)
			}
		}()
		fmt.Fprintf(stdout, "scand: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.NewHandler(c),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(stdout, "scand: draining (finishing queued jobs, refusing new ones)")
		c.Drain()
		srv.Close()
	}()
	eff := c.Instance(0).Config()
	fmt.Fprintf(stdout, "scand: serving attack jobs on %s (%s, executors=%d scan-workers=%d queue=%d per instance, pooled=%v)\n",
		*addr, topo, eff.Executors, eff.ScanWorkers, eff.QueueDepth, !eff.FreshWorkers)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(stderr, "scand: %v\n", err)
		return 1
	}
	printStats(stdout, c.Stats().Stats)
	return 0
}

func printStats(out *os.File, st service.Stats) {
	fmt.Fprintf(out, "jobs: %d submitted, %d done, %d failed, %d rejected; success %.2f%%\n",
		st.Submitted, st.Completed, st.Failed, st.Rejected, 100*st.SuccessRate)
	fmt.Fprintf(out, "throughput: %.1f jobs/s; latency p50 %.2f ms, p99 %.2f ms; simulated attacker time %.3f s\n",
		st.JobsPerSec, st.P50Ms, st.P99Ms, st.SimAttackerSec)
	fmt.Fprintf(out, "reuse: %d session hits / %d boots, %d calibrations skipped (hit rate %.1f%%), %d pooled scan replicas\n",
		st.SessionHits, st.Sessions, st.CalibrationsReused, 100*st.CacheHitRate(), st.PoolReplicas)
	if st.Retries+st.Shed+st.Quarantined > 0 || st.FaultsInjected > 0 {
		fmt.Fprintf(out, "healing: %d retries, %d shed, %d sessions quarantined, %d faults injected\n",
			st.Retries, st.Shed, st.Quarantined, st.FaultsInjected)
	}
}
