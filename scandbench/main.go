// Command scandbench is the repository's end-to-end benchmark. It starts
// the scand daemon, drives it over its HTTP API with closed-loop clients,
// and prints the end-to-end metrics; with --trace 1 it also replays the
// workload through each layer's public calls in-process and prints the
// per-layer metrics. See README.md for the workloads and metrics.
//
//	scandbench --scand <binary> --workload hot-sessions --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// runBudget bounds a whole run; jobs not sent by then count as failed, so
// the process always exits well within the three minutes a run may take.
const runBudget = 150 * time.Second

// maxFailureLines bounds how many distinct failure reasons a run prints.
const maxFailureLines = 5

// minCorrectFrac is the share of attacks that must recover the right answer
// for a run to count as correct.
const minCorrectFrac = 0.9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload, scand, out, stamp, commit string
	seed                                uint64
	seconds, trace                      int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scandbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; victim seeds derive from it")
	fs.IntVar(&o.seconds, "seconds", 20, "about how long the timed phases of a run take")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.scand, "scand", "", "scand binary to benchmark")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for run records and traces")
	fs.StringVar(&o.stamp, "stamp", "", "hash of the sources under test (keys the exact-count records)")
	fs.StringVar(&o.commit, "commit", "", "commit under test, for the host record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.scand == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "scandbench: need --scand, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	if _, err := os.Stat(o.scand); err != nil {
		fmt.Fprintf(stderr, "scandbench: %v\n", err)
		return 2
	}
	nproc := runtime.NumCPU()
	p, err := makePlan(o.workload, o.seed, o.seconds, nproc, nproc)
	if err != nil {
		fmt.Fprintf(stderr, "scandbench: %v\n", err)
		return 2
	}

	// On a signal, kill and reap the running daemon before exiting; if this
	// process is killed outright, Pdeathsig takes the daemon down with it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if d := running.Load(); d != nil {
			d.stop()
		}
		fmt.Fprintln(stderr, "scandbench: interrupted")
		os.Exit(1)
	}()

	deadline := time.Now().Add(runBudget)
	steal0, _ := stealTicks()
	var res result
	var epochStats []epochStat
	var problems []string
	if o.trace == 0 {
		pass := runPass(o.scand, nproc, p, deadline, nil)
		res, epochStats, problems = endToEnd(p, pass)
		problems = append(problems, checkExact(o, p, countExact(pass), "e2e")...)
	} else {
		res, epochStats, problems = traced(o, p, nproc, deadline, stdout)
	}
	steal1, _ := stealTicks()
	res.Correct = len(problems) == 0
	for _, pr := range problems {
		fmt.Fprintf(stderr, "scandbench: %s\n", pr)
	}

	host := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "GOMAXPROCS_env": os.Getenv("GOMAXPROCS"),
		"go": runtime.Version(), "commit": o.commit, "source_stamp": o.stamp,
		"epochs": len(epochStats), "clients": p.clients, "cpu_steal_s": float64(steal1-steal0) / 100,
	}
	hb, _ := json.Marshal(host) // plain values only; cannot fail
	fmt.Fprintf(stdout, "host: %s\n", hb)
	host["epochs"], host["result"], host["problems"] = epochStats, res, problems
	hb, _ = json.Marshal(host)
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", o.workload, o.seed, o.trace, time.Now().UnixNano())
	if err := writeFile(filepath.Join(o.out, "runs", name), hb); err != nil {
		fmt.Fprintf(stderr, "scandbench: writing the run record: %v\n", err)
	}
	printTable(stdout, res)
	line, _ := json.Marshal(res) // metrics are finite numbers (see finite)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func printTable(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// runPass runs every epoch of the plan, one daemon after another.
func runPass(bin string, executors int, p plan, deadline time.Time, tr *tracer) []epochResult {
	out := make([]epochResult, len(p.epochs))
	for i, ep := range p.epochs {
		out[i] = runEpoch(bin, executors, ep, deadline, tr)
	}
	return out
}

// each calls f for every record of the pass in plan order (epoch, client,
// position), warm-up records first when warm is set.
func each(pass []epochResult, warm bool, f func(r *record)) {
	for i := range pass {
		lists := pass[i].timed
		if warm {
			lists = append(append([][]record(nil), pass[i].warm...), lists...)
		}
		for _, recs := range lists {
			for k := range recs {
				f(&recs[k])
			}
		}
	}
}

// finite maps NaN and infinities, which only arise when no job completed,
// to 0 so the result line stays valid JSON; such a run is not correct.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// epochStat is one epoch's end-to-end figures, kept in the run record.
type epochStat struct {
	Jobs        int     `json:"jobs"`
	JobsPerS    float64 `json:"jobs_per_s"`
	P50Ms       float64 `json:"latency_p50_ms"`
	P90Ms       float64 `json:"latency_p90_ms"`
	CPUMsPerJob float64 `json:"cpu_ms_per_job"`
	SetupS      float64 `json:"setup_s"`
	PeakRSSMB   float64 `json:"peak_rss_mb"`
	StealS      float64 `json:"cpu_steal_s"`
}

// endToEnd computes the end-to-end metrics of a pass and checks the
// daemon's outputs: no failures, the expected session reuse on every job,
// identical results for every job of one stateless spec, and enough
// attacks recovering the ground truth. Every timing is the median over
// epochs of the epoch's figure, so a burst of host contention in a few
// epochs does not move it; an epoch's latency quantiles are exact order
// statistics of its samples.
func endToEnd(p plan, pass []epochResult) (result, []epochStat, []string) {
	var (
		problems                 []string
		attempted, failed, right int
		done, beyond             int
		attackErrors, timed      int
		sim                      float64
		failures                 = map[string]int{}
		firstResult              = map[string]string{}
		reuseWrong, mismatched   int
	)
	each(pass, true, func(r *record) {
		attempted++
		if r.failed != "" {
			failed++
			failures[r.failed]++
			return
		}
		if e := allEntries[r.entry]; !e.temporal() {
			key := r.key()
			if first, ok := firstResult[key]; !ok {
				firstResult[key] = r.identity()
			} else if first != r.identity() {
				mismatched++
			}
		}
	})
	stats := make([]epochStat, len(pass))
	var rates, p50s, p90s, cpus, setups, rss []float64
	for i := range pass {
		var epochLat []float64
		each(pass[i:i+1], false, func(r *record) {
			timed++
			if r.failed != "" {
				return
			}
			epochLat = append(epochLat, ms(r.latency))
			if r.out.AttackError {
				attackErrors++
			}
			sim += r.out.TotalSimSec
			if r.out.Correct {
				right++
			}
			if r.snap.ReusedSession != wantReuse(p.workload, r.entry) || r.snap.ReusedCalibration {
				reuseWrong++
			}
		})
		done += len(epochLat)
		e, n := pass[i], float64(len(epochLat))
		st := epochStat{
			Jobs:        len(epochLat),
			JobsPerS:    finite(n / e.timedWall.Seconds()),
			CPUMsPerJob: finite(e.cpuSec * 1000 / n),
			SetupS:      e.setup.Seconds(),
			PeakRSSMB:   e.rssMB,
			StealS:      e.stealS,
		}
		st.P50Ms, _ = orderStat(epochLat, 0.5)
		p90, b := orderStat(epochLat, 0.9)
		beyond += b
		st.P50Ms, st.P90Ms = finite(st.P50Ms), finite(p90)
		stats[i] = st
		rates, cpus = append(rates, st.JobsPerS), append(cpus, st.CPUMsPerJob)
		p50s, p90s = append(p50s, st.P50Ms), append(p90s, st.P90Ms)
		setups, rss = append(setups, st.SetupS), append(rss, st.PeakRSSMB)
	}
	correctFrac := float64(right) / float64(timed)
	res := result{
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"jobs_per_s":     {finite(median(rates)), "1/s"},
			"latency_p50_ms": {finite(median(p50s)), "ms"},
			"latency_p90_ms": {finite(median(p90s)), "ms"},
			"cpu_ms_per_job": {finite(median(cpus)), "ms"},
			"correct_frac":   {finite(correctFrac), "frac"},
			"sim_attacker_s": {sim, "s"},
			"setup_s":        {finite(median(setups)), "s"},
			"peak_rss_mb":    {finite(median(rss)), "MB"},
		},
	}
	whys := make([]string, 0, len(failures))
	for why := range failures {
		whys = append(whys, why)
	}
	sort.Strings(whys)
	for i, why := range whys {
		if i == maxFailureLines {
			problems = append(problems, fmt.Sprintf("jobs failed for %d more reasons", len(whys)-i))
			break
		}
		problems = append(problems, fmt.Sprintf("%d jobs failed: %s", failures[why], why))
	}
	if done > 0 && beyond < 10 {
		problems = append(problems, fmt.Sprintf("only %d latency samples beyond the epochs' p90s (%d samples); run longer", beyond, done))
	}
	if reuseWrong > 0 {
		problems = append(problems, fmt.Sprintf("harness bug: %d timed jobs did not reuse sessions as the workload intends", reuseWrong))
	}
	if mismatched > 0 {
		problems = append(problems, fmt.Sprintf("%d jobs of a stateless spec returned a result different from its first job", mismatched))
	}
	if correctFrac < minCorrectFrac {
		problems = append(problems, fmt.Sprintf("only %.4f of the attacks recovered the ground truth (want >= %g)", correctFrac, minCorrectFrac))
	}
	sort.Strings(problems)
	fmt.Fprintf(os.Stdout, "latency samples: %d (%d beyond the epochs' p90s); %d attacks returned an error (counted as incorrect)\n", done, beyond, attackErrors)
	return res, stats, problems
}

// wantReuse is whether a timed job of the entry must reuse a parked
// session: always on hot-sessions, never on cold-boots, for the windows
// half of deep-sweeps.
func wantReuse(workload string, entry int) bool {
	switch workload {
	case hotSessions:
		return true
	case deepSweeps:
		return entry == windowsEntry
	}
	return false
}

// exactCounts are pure functions of the job list; every run of the same
// inputs and sources must reproduce them bit for bit.
type exactCounts struct {
	Attempted       int    `json:"attempted"`
	Correct         int    `json:"correct"`
	SimAttackerBits uint64 `json:"sim_attacker_bits"`
	SessionHits     int    `json:"session_hits"`
	CalibrationHits int    `json:"calibration_hits"`
}

func countExact(pass []epochResult) exactCounts {
	var c exactCounts
	var sim float64
	each(pass, false, func(r *record) {
		c.Attempted++
		if r.failed != "" {
			return
		}
		sim += r.out.TotalSimSec
		if r.out.Correct {
			c.Correct++
		}
		if r.snap.ReusedSession {
			c.SessionHits++
		}
		if r.snap.ReusedCalibration {
			c.CalibrationHits++
		}
	})
	c.SimAttackerBits = math.Float64bits(sim)
	return c
}

// checkExact compares exact counts with the record an earlier run of the
// same inputs and sources left, or leaves that record. A mismatch is a
// harness bug, never noise.
func checkExact(o options, p plan, counts any, kind string) []string {
	path := filepath.Join(o.out, "exact", fmt.Sprintf("%s-%s-seed%d-s%d-c%d-%s.json", kind, o.workload, o.seed, o.seconds, p.clients, o.stamp))
	now, _ := json.Marshal(counts) // plain values only; cannot fail
	if prev, err := os.ReadFile(path); err == nil {
		if !bytes.Equal(prev, now) {
			return []string{fmt.Sprintf("harness bug: exact counts %s differ from an earlier run of the same inputs %s", now, prev)}
		}
		return nil
	}
	if err := writeFile(path, now); err != nil {
		return []string{fmt.Sprintf("writing exact counts: %v", err)}
	}
	return nil
}

// traced runs the workload untraced and then traced through the daemon,
// replays it through the layer ladder, and returns the per-layer metrics.
func traced(o options, p plan, nproc int, deadline time.Time, stdout io.Writer) (result, []epochStat, []string) {
	plain := runPass(o.scand, nproc, p, deadline, nil)
	base, _, _ := endToEnd(p, plain)
	tr := newTracer()
	pass := runPass(o.scand, nproc, p, deadline, tr)
	res, stats, problems := endToEnd(p, pass)
	exact := countExact(pass)
	if plainExact := countExact(plain); plainExact != exact {
		problems = append(problems, fmt.Sprintf("harness bug: the untraced and traced passes over the same jobs gave exact counts %+v and %+v", plainExact, exact))
	}
	problems = append(problems, checkExact(o, p, exact, "e2e")...)

	var client, queue, exec []float64
	var hits, calHits, done int
	daemonExec := map[string][]float64{}
	reused := map[string]bool{}
	each(pass, false, func(r *record) {
		if r.failed != "" {
			return
		}
		s := r.snap
		e := ms(s.Finished.Sub(s.Started))
		client = append(client, ms(r.latency)-ms(s.Finished.Sub(s.Submitted)))
		queue = append(queue, ms(s.Started.Sub(s.Submitted)))
		exec = append(exec, e)
		key := r.key()
		daemonExec[key] = append(daemonExec[key], e)
		reused[key] = s.ReusedSession
		done++
		if s.ReusedSession {
			hits++
		}
		if s.ReusedCalibration {
			calHits++
		}
	})

	rungs := ladderRungs(p, pass, o.seed, nproc)
	pool := core.NewScanPool()
	for i := range rungs {
		r := &rungs[i]
		var err error
		switch {
		case allEntries[i].temporal():
			r.viaScheduler = true
			err = replayTemporal(r, tr)
		case r.spec.Kind == "cloud":
			err = replayCloud(r, pool, nproc, tr)
		default:
			err = replaySession(r, pool, nproc, tr)
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("ladder %s: %v", r.label, err))
		}
	}
	calKB, err := calibrationKB(sessionSpecs(rungs))
	if err != nil {
		problems = append(problems, fmt.Sprintf("calibration size: %v", err))
	}
	if err := tr.write(filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d-%d.json", o.workload, o.seed, time.Now().UnixNano()))); err != nil {
		problems = append(problems, fmt.Sprintf("writing spans: %v", err))
	}

	m := map[string]metric{
		"service.client_ms":            {finite(median(client)), "ms"},
		"service.queue_ms":             {finite(median(queue)), "ms"},
		"service.exec_ms":              {finite(median(exec)), "ms"},
		"service.session_hit_frac":     {finite(float64(hits) / float64(done)), "frac"},
		"service.calibration_hit_frac": {finite(float64(calHits) / float64(done)), "frac"},
		"core.calibration_kb":          {finite(calKB), "KB"},
		"scan.pool_replicas":           {float64(pool.Replicas()), "count"},
		"trace.overhead_p50_ms":        {res.Metrics["latency_p50_ms"].Value - base.Metrics["latency_p50_ms"].Value, "ms"},
		"trace.overhead_jobs_per_s":    {res.Metrics["jobs_per_s"].Value - base.Metrics["jobs_per_s"].Value, "1/s"},
	}
	var boot, cal, ckpt, restore, tax []float64
	walkCounts := map[string]uint64{}
	for _, r := range rungs {
		m["core.attack_ms."+r.label] = metric{finite(r.ownAttackMs()), "ms"}
		if r.viaScheduler {
			continue
		}
		m["scan.speedup."+r.label] = metric{finite(r.attackMs / r.fanMs), "x"}
		m["scan.cpu_per_wall."+r.label] = metric{finite(r.fanCPUMs / r.fanMs), "x"}
		if r.spec.Kind != "cloud" {
			walkCounts[r.label] = r.walks
			m["machine.walks."+r.label] = metric{float64(r.walks), "count"}
			m["machine.ns_per_walk."+r.label] = metric{finite(r.attackMs * 1e6 / float64(r.walks)), "ns"}
			boot, cal, ckpt = append(boot, r.bootMs), append(cal, r.calibrateMs), append(ckpt, r.checkpointMs)
			restore = append(restore, r.restoreMs)
		}
		if r.jobID == 0 {
			continue
		}
		key := r.key()
		if d := daemonOutcome(pass, key); d != r.out || r.fanOut != r.out {
			problems = append(problems, fmt.Sprintf("parity: %s seed %d: daemon %+v, ladder inline %+v, ladder fan-out %+v", r.label, r.spec.Seed, d, r.out, r.fanOut))
		}
		ladder := r.ownAttackMs() + r.restoreMs
		if !reused[key] && r.spec.Kind != "cloud" {
			ladder += r.bootMs + r.calibrateMs + r.checkpointMs
		}
		tax = append(tax, median(daemonExec[key])-ladder)
	}
	m["boot.victim_ms"] = metric{finite(median(boot)), "ms"}
	m["core.calibrate_ms"] = metric{finite(median(cal)), "ms"}
	m["core.checkpoint_ms"] = metric{finite(median(ckpt)), "ms"}
	m["core.restore_ms"] = metric{finite(median(restore)), "ms"}
	m["service.tax_ms"] = metric{finite(mean(tax)), "ms"}
	problems = append(problems, checkExact(o, p, walkCounts, "ladder")...)

	fmt.Fprintln(stdout, "self time by span name (ms, summed; temporal kinds timed through an in-process scheduler):")
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-44s %10.3f\n", n, self[n])
	}
	res.Metrics = m
	return res, stats, problems
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ownAttackMs is the attack time at the fan-out the workload's jobs ask
// for: fanned for the sweep entries, inline otherwise.
func (r rung) ownAttackMs() float64 {
	if r.spec.ScanWorkers != nil && *r.spec.ScanWorkers > 0 {
		return r.fanMs
	}
	return r.attackMs
}

func daemonOutcome(pass []epochResult, key string) outcome {
	var o outcome
	found := false
	each(pass, false, func(r *record) {
		if !found && r.failed == "" && r.key() == key {
			o, found = r.out, true
		}
	})
	return o
}

// ladderRungs picks one spec per pinned entry: the first timed job of that
// entry in the traced pass, or, for entries the workload does not run, the
// entry at a victim seed derived from the workload seed, so every traced
// run reports every per-layer metric.
func ladderRungs(p plan, pass []epochResult, seed uint64, nproc int) []rung {
	rungs := make([]rung, len(allEntries))
	for i, e := range allEntries {
		rungs[i] = rung{label: e.label, job: job{entry: i, spec: e.at(victimSeed(seed, 1<<20+uint64(i)), nproc)}}
	}
	seen := map[int]bool{}
	each(pass, false, func(r *record) {
		if !seen[r.entry] && r.failed == "" {
			seen[r.entry] = true
			rungs[r.entry].spec, rungs[r.entry].jobID = r.spec, r.id
		}
	})
	return rungs
}

func sessionSpecs(rungs []rung) []spec {
	var out []spec
	for _, r := range rungs {
		if !r.viaScheduler && r.spec.Kind != "cloud" {
			out = append(out, r.spec)
		}
	}
	return out
}
