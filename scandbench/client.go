package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// jobTimeout bounds one job from POST to result; a job over it counts as
// failed and its client moves on.
const jobTimeout = 60 * time.Second

// snapshot is the part of GET /jobs/{id} the benchmark reads.
type snapshot struct {
	Status            string          `json:"status"`
	Err               string          `json:"error"`
	ErrClass          string          `json:"error_class"`
	Result            json.RawMessage `json:"result"`
	ReusedSession     bool            `json:"reused_session"`
	ReusedCalibration bool            `json:"reused_calibration"`
	Submitted         time.Time       `json:"submitted"`
	Started           time.Time       `json:"started"`
	Finished          time.Time       `json:"finished"`
}

// record is one job as its client saw it.
type record struct {
	job
	id      uint64
	latency time.Duration // POST sent to final result received
	failed  string        // why the job failed; empty when it did not
	snap    snapshot
	out     outcome
}

// key names the job's spec: its entry and victim seed.
func (j job) key() string { return fmt.Sprintf("%d/%d", j.entry, j.spec.Seed) }

// identity is what every job of one stateless spec must return alike.
func (r *record) identity() string { return string(r.snap.Result) + "|" + r.snap.Err }

// epochResult is one daemon lifetime's measurements.
type epochResult struct {
	setup     time.Duration // daemon start, /healthz, warm-up
	timedWall time.Duration
	cpuSec    float64 // daemon CPU during the timed phase
	rssMB     float64 // daemon VmHWM at the end of the timed phase
	stealS    float64 // host CPU steal during the timed phase
	warm      [][]record
	timed     [][]record
}

// runEpoch starts a daemon, runs the warm-up and then the timed job lists,
// one closed-loop client per list, and kills and reaps the daemon. Any
// failure is recorded on the jobs it affected; jobs after the daemon died
// or after the deadline count as failed without being sent.
func runEpoch(bin string, executors int, ep epochPlan, deadline time.Time, tr *tracer) epochResult {
	var res epochResult
	d, err := startDaemon(bin, executors)
	if err != nil {
		res.warm = failAll(ep.warm, err.Error())
		res.timed = failAll(ep.timed, err.Error())
		return res
	}
	defer d.stop()
	ctx, cancel := d.context()
	defer cancel()
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	defer httpc.CloseIdleConnections()

	res.warm = runClients(ctx, httpc, d.base, ep.warm, deadline, nil)
	res.setup = time.Since(d.start)
	for _, recs := range res.warm {
		for _, r := range recs {
			if r.failed != "" {
				res.timed = failAll(ep.timed, "warm-up failed: "+r.failed)
				return res
			}
		}
	}
	pid := d.cmd.Process.Pid
	steal0, _ := stealTicks()
	cpu0, err0 := cpuSeconds(pid)
	t0 := time.Now()
	res.timed = runClients(ctx, httpc, d.base, ep.timed, deadline, tr)
	res.timedWall = time.Since(t0)
	cpu1, err1 := cpuSeconds(pid)
	steal1, _ := stealTicks()
	res.stealS = float64(steal1-steal0) / 100
	rss, err2 := peakRSSMB(pid)
	if err0 != nil || err1 != nil || err2 != nil || !d.alive() {
		msg := fmt.Sprintf("scand died during the timed phase: %s", d.stderr.String())
		for _, recs := range res.timed {
			for i := range recs {
				if recs[i].failed == "" {
					recs[i].failed = msg
				}
			}
		}
		return res
	}
	res.cpuSec, res.rssMB = cpu1-cpu0, rss
	return res
}

func failAll(lists [][]job, why string) [][]record {
	out := make([][]record, len(lists))
	for c, jobs := range lists {
		for _, j := range jobs {
			out[c] = append(out[c], record{job: j, failed: why})
		}
	}
	return out
}

// runClients runs one closed-loop client per job list and returns when all
// are done.
func runClients(ctx context.Context, httpc *http.Client, base string, lists [][]job, deadline time.Time, tr *tracer) [][]record {
	out := make([][]record, len(lists))
	var wg sync.WaitGroup
	for c, jobs := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs := make([]record, 0, len(jobs))
			for _, j := range jobs {
				recs = append(recs, runJob(ctx, httpc, base, j, deadline, tr))
			}
			out[c] = recs
		}()
	}
	wg.Wait()
	return out
}

// runJob submits one job and long-polls until it finishes.
func runJob(ctx context.Context, httpc *http.Client, base string, j job, deadline time.Time, tr *tracer) record {
	r := record{job: j}
	if ctx.Err() != nil {
		r.failed = "scand is not running"
		return r
	}
	if time.Now().After(deadline) {
		r.failed = "run deadline passed"
		return r
	}
	body, err := json.Marshal(j.spec)
	if err != nil {
		r.failed = err.Error()
		return r
	}
	jctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()

	root := tr.begin(0, "job", nil)
	sp := tr.begin(0, "submit", root)
	t0 := time.Now()
	var sub struct {
		ID uint64 `json:"id"`
	}
	err = call(jctx, httpc, http.MethodPost, base+"/jobs", body, http.StatusAccepted, &sub)
	tr.end(sp)
	if err != nil {
		r.failed = "submit: " + err.Error()
		tr.end(root)
		return r
	}
	r.id, root.JobID, sp.JobID = sub.ID, sub.ID, sub.ID
	sp = tr.begin(sub.ID, "wait", root)
	for {
		err = call(jctx, httpc, http.MethodGet, fmt.Sprintf("%s/jobs/%d?wait=30s", base, sub.ID), nil, http.StatusOK, &r.snap)
		if err != nil || r.snap.Status == "done" || r.snap.Status == "failed" {
			break
		}
	}
	r.latency = time.Since(t0)
	tr.end(sp)
	tr.end(root)
	if tr != nil {
		sp.Attrs = map[string]any{
			"submitted": r.snap.Submitted, "started": r.snap.Started, "finished": r.snap.Finished,
			"reused_session": r.snap.ReusedSession, "reused_calibration": r.snap.ReusedCalibration,
		}
	}
	switch {
	case err != nil:
		r.failed = "wait: " + err.Error()
	case r.snap.Status == "failed" && r.snap.ErrClass == "permanent":
		// The spec was accepted, so a permanent error is the attack's own
		// deterministic answer (it found nothing): an incorrect result, not
		// a failed operation.
		r.out = outcome{AttackError: true}
	case r.snap.Status == "failed":
		r.failed = "job failed: " + r.snap.Err
	default:
		if err := json.Unmarshal(r.snap.Result, &r.out); err != nil {
			r.failed = "bad result: " + err.Error()
		}
	}
	return r
}

// call does one HTTP exchange and decodes a JSON reply with the wanted
// status.
func call(ctx context.Context, httpc *http.Client, method, url string, body []byte, want int, into any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, into)
}
