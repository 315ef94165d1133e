package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/perf"
	"repro/internal/service"
	"repro/internal/sgx"
	"repro/internal/uarch"
	"repro/internal/userspace"
	"repro/internal/winkernel"
)

// ladderReps is how often the ladder repeats each timed call; it reports
// the median.
const ladderReps = 5

// outcome is the part of a result the ladder compares with the daemon's.
type outcome struct {
	Base        uint64  `json:"base"`
	Correct     bool    `json:"correct"`
	TotalSimSec float64 `json:"total_sim_sec"`
	// AttackError marks an attack that returned an error instead of a
	// result; the service reports those as permanent job failures.
	AttackError bool `json:"-"`
}

// rung is one spec replayed through the layers' public calls.
type rung struct {
	label string
	job
	jobID uint64 // the daemon job this replay shadows; 0 when none ran it
	// viaScheduler marks a temporal kind, timed whole through an
	// in-process service scheduler: its session set-up has no public
	// equivalent.
	viaScheduler bool

	bootMs, calibrateMs, checkpointMs float64
	restoreMs, attackMs               float64 // medians, sweeps inline
	fanMs, fanCPUMs                   float64 // medians, sweeps over nproc replicas
	walks                             uint64
	out, fanOut                       outcome
}

// victim is a booted target with the ground truth the attacks are scored
// against.
type victim struct {
	m    *machine.Machine
	k    *linux.Kernel
	w    *winkernel.Kernel
	proc *userspace.Process
}

// boot runs machine.New and the kind's boot sequence, as the service's
// buildSession does.
func boot(s spec) (victim, error) {
	preset := uarch.ByName(s.CPU)
	if preset == nil {
		return victim{}, fmt.Errorf("no CPU preset %q", s.CPU)
	}
	v := victim{m: machine.New(preset, s.Seed)}
	var err error
	switch s.Kind {
	case "kernelbase", "kpti", "modules", "defenseeval":
		v.k, err = linux.Boot(v.m, linux.Config{
			Seed:             s.Seed,
			KPTI:             s.Kind == "kpti",
			FLARE:            s.Defense == "flare",
			FGKASLR:          s.Defense == "fgkaslr",
			TrampolineOffset: s.Trampoline,
		})
	case "windows":
		v.w, err = winkernel.Boot(v.m, winkernel.Config{Seed: s.Seed, Drivers: s.Drivers})
	case "userscan":
		if _, err = linux.Boot(v.m, linux.Config{Seed: s.Seed}); err != nil {
			break
		}
		v.proc, err = userspace.Build(v.m, userspace.Config{Seed: s.Seed, EntropyBits: s.EntropyBits, HideLastRWPage: true})
		if err == nil && s.SGX {
			_, err = sgx.Enter(v.m, sgx.RDTSC)
		}
	default:
		err = fmt.Errorf("kind %q has no session", s.Kind)
	}
	return v, err
}

// attack runs the kind's attack body on a restored prober and scores it as
// the service's executor does.
func attack(s spec, v victim, p *core.Prober, state core.SessionState) (outcome, error) {
	preset := p.M.Preset
	switch s.Kind {
	case "kernelbase":
		res, err := core.KernelBase(p)
		return outcome{Base: uint64(res.Base), Correct: res.Base == v.k.Base, TotalSimSec: res.TotalSeconds(preset)}, err
	case "kpti":
		res, err := core.KPTIBreak(p, s.Trampoline)
		return outcome{Base: uint64(res.Base), Correct: res.Base == v.k.Base, TotalSimSec: preset.CyclesToSeconds(res.TotalCycles)}, err
	case "modules":
		table := core.SizeTable(v.k.ProcModules())
		res := core.Modules(p, table)
		acc := core.ScoreModules(res, v.k.Modules, table).DetectionAccuracy()
		return outcome{Correct: acc >= 0.99, TotalSimSec: preset.CyclesToSeconds(res.TotalCycles)}, nil
	case "windows":
		res, err := core.WindowsKernel(p, winkernel.ImageSlots)
		return outcome{Base: uint64(res.RegionBase), Correct: res.RegionBase == v.w.Base, TotalSimSec: preset.CyclesToSeconds(res.TotalCycles)}, err
	case "userscan":
		libs := v.proc.Libs
		res := core.UserScan(p, libs[0].Base-16*paging.Page4K, libs[len(libs)-1].End()+8*paging.Page4K)
		found := core.FingerprintLibraries(res.Regions, userspace.StandardLibraries())
		correct := len(libs) > 0
		for _, lib := range libs {
			if found[lib.Image.Name] != lib.Base {
				correct = false
			}
		}
		return outcome{Correct: correct, TotalSimSec: preset.CyclesToSeconds(res.TotalCycles)}, nil
	case "defenseeval":
		return defenseAttack(s, v, p, state)
	}
	return outcome{}, fmt.Errorf("kind %q has no ladder attack", s.Kind)
}

func defenseAttack(s spec, v victim, p *core.Prober, state core.SessionState) (outcome, error) {
	t0 := p.M.RDTSC()
	var o outcome
	switch s.Defense {
	case "flare":
		out := defense.FlareAttack(p, v.k)
		o = outcome{Base: uint64(out.TLBBaseFound), Correct: !out.PageTableDistinguishes && out.Bypassed()}
	case "fgkaslr":
		out, err := defense.FGKASLRAttack(p, v.k, s.Seed, s.Function)
		if err != nil {
			return o, err
		}
		o = outcome{Base: uint64(out.TemplateFoundPage), Correct: out.Bypassed() && !out.OffsetStable}
	case "rerand":
		out, err := defense.RerandAttack(p, v.k, s.Seed)
		if err != nil {
			return o, err
		}
		o = outcome{Base: uint64(out.RecoveredBase), Correct: !out.StaleHit}
		if len(s.RerandPeriodsSec) > 0 {
			if err := p.Restore(state); err != nil {
				return o, err
			}
			pts, _, err := defense.RerandSweep(p, v.k, s.RerandPeriodsSec)
			if err != nil {
				return o, err
			}
			for _, pt := range pts {
				if pt.Exploitable != (pt.WindowSec > 0) {
					o.Correct = false
				}
			}
		}
	default:
		return o, fmt.Errorf("defense %q has no ladder attack", s.Defense)
	}
	o.TotalSimSec = p.M.Preset.CyclesToSeconds(p.M.RDTSC() - t0)
	return o, nil
}

// cpuNow returns this process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func walks(m *machine.Machine) uint64 {
	return m.Counters.Read(perf.WalkCompletedLoad) + m.Counters.Read(perf.WalkCompletedStore)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// replaySession replays a session-backed spec: build (boot, calibrate,
// checkpoint), then ladderReps times restore + attack with sweeps inline,
// then ladderReps times restore + attack fanned over nproc pooled replicas.
// Each call gets a span; the attack spans carry the machine's walk delta.
func replaySession(r *rung, pool *core.ScanPool, fan int, tr *tracer) error {
	root := tr.begin(r.jobID, "ladder."+r.label, nil)
	defer tr.end(root)
	sp := tr.begin(r.jobID, "boot", root)
	t0 := time.Now()
	v, err := boot(r.spec)
	r.bootMs = ms(time.Since(t0))
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	sp = tr.begin(r.jobID, "calibrate", root)
	t0 = time.Now()
	p, err := core.NewProber(v.m, core.Options{})
	r.calibrateMs = ms(time.Since(t0))
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("calibrate: %w", err)
	}
	sp = tr.begin(r.jobID, "checkpoint", root)
	t0 = time.Now()
	state := p.Checkpoint()
	_ = p.CalibrationSnapshot()
	r.checkpointMs = ms(time.Since(t0))
	tr.end(sp)

	var restore, inline, fanned, fanCPU []float64
	for rep := 0; rep < 2*ladderReps; rep++ {
		fanOut := rep >= ladderReps
		sp = tr.begin(r.jobID, "restore", root)
		t0 = time.Now()
		err := p.Restore(state)
		restore = append(restore, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		p.Opt.Workers, p.Opt.Pool = 0, nil
		name := "attack"
		if fanOut {
			p.Opt.Workers, p.Opt.Pool = fan, pool
			name = "attack.fanout"
		}
		w0 := walks(p.M)
		sp = tr.begin(r.jobID, name, root)
		c0, t0 := cpuNow(), time.Now()
		out, err := attack(r.spec, v, p, state)
		wall, cpu := time.Since(t0), cpuNow()-c0
		dw := walks(p.M) - w0
		sp.Attrs = map[string]any{"walks": dw}
		tr.end(sp)
		if err != nil {
			out = outcome{AttackError: true}
		}
		switch {
		case fanOut:
			fanned, fanCPU = append(fanned, ms(wall)), append(fanCPU, ms(cpu))
			r.fanOut = out
		case rep == 0:
			r.out, r.walks = out, dw
			inline = append(inline, ms(wall))
		default:
			if out != r.out || dw != r.walks {
				return fmt.Errorf("harness bug: repeat %d of the inline attack gave %+v and %d walks, first gave %+v and %d", rep, out, dw, r.out, r.walks)
			}
			inline = append(inline, ms(wall))
		}
	}
	r.restoreMs, r.attackMs = median(restore), median(inline)
	r.fanMs, r.fanCPUMs = median(fanned), median(fanCPU)
	return nil
}

// replayCloud times core.CloudBreak, which boots its own victim, inline and
// fanned out.
func replayCloud(r *rung, pool *core.ScanPool, fan int, tr *tracer) error {
	root := tr.begin(r.jobID, "ladder."+r.label, nil)
	defer tr.end(root)
	prov := map[string]core.CloudProvider{"ec2": core.AmazonEC2, "gce": core.GoogleGCE, "azure": core.MicrosoftAzure}[r.spec.Provider]
	sc := core.Scenario(prov)
	var inline, fanned, fanCPU []float64
	for rep := 0; rep < 2*ladderReps; rep++ {
		opt := core.Options{}
		name := "attack"
		if rep >= ladderReps {
			opt, name = core.Options{Workers: fan, Pool: pool}, "attack.fanout"
		}
		sp := tr.begin(r.jobID, name, root)
		c0, t0 := cpuNow(), time.Now()
		res, err := core.CloudBreak(prov, r.spec.Seed, core.CloudBreakOptions{Probe: opt})
		wall, cpu := time.Since(t0), cpuNow()-c0
		tr.end(sp)
		out := outcome{Base: uint64(res.KernelBase), Correct: true, TotalSimSec: sc.Preset.CyclesToSeconds(res.BaseCycles + res.ModuleCycles)}
		if err != nil {
			out = outcome{AttackError: true}
		}
		if rep < ladderReps {
			r.out = out
			inline = append(inline, ms(wall))
		} else {
			r.fanOut = out
			fanned, fanCPU = append(fanned, ms(wall)), append(fanCPU, ms(cpu))
		}
	}
	r.attackMs, r.fanMs, r.fanCPUMs = median(inline), median(fanned), median(fanCPU)
	return nil
}

// replayTemporal runs a temporal spec twice through an in-process
// scheduler, ladderReps times over: the first job builds the session, the
// second reuses it, and its executor time (acquire + restore + attack) is
// what the ladder reports as the attack.
func replayTemporal(r *rung, tr *tracer) error {
	root := tr.begin(r.jobID, "ladder."+r.label+".scheduler", nil)
	defer tr.end(root)
	raw, err := json.Marshal(r.spec)
	if err != nil {
		return err
	}
	var js service.JobSpec
	if err := json.Unmarshal(raw, &js); err != nil {
		return err
	}
	var hot []float64
	for rep := 0; rep < ladderReps; rep++ {
		s := service.New(service.Config{Executors: 1})
		for k := 0; k < 2; k++ {
			name := "job.build"
			if k == 1 {
				name = "job.reuse"
			}
			sp := tr.begin(r.jobID, name, root)
			j, err := s.Submit(js)
			if err == nil {
				_, err = s.Wait(j)
			}
			tr.end(sp)
			if err != nil {
				s.Drain()
				return fmt.Errorf("scheduler job: %w", err)
			}
			if k == 1 {
				snap, _ := s.JobSnapshot(j.ID)
				hot = append(hot, ms(snap.Finished.Sub(snap.Started)))
			}
		}
		s.Drain()
	}
	r.attackMs = median(hot)
	return nil
}

// calibrationKB returns the heap retained per held CalibrationSnapshot:
// build n victims, keep only their snapshots, and compare live heap after
// GC with and without them.
func calibrationKB(specs []spec) (float64, error) {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	held := make([]core.Calibration, 0, len(specs))
	for _, s := range specs {
		v, err := boot(s)
		if err != nil {
			return 0, err
		}
		p, err := core.NewProber(v.m, core.Options{})
		if err != nil {
			return 0, err
		}
		held = append(held, p.CalibrationSnapshot())
	}
	after := heap()
	runtime.KeepAlive(held)
	return float64(int64(after)-int64(before)) / 1024 / float64(len(held)), nil
}
