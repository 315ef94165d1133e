package service

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/linux"
	"repro/internal/machine"
	"repro/internal/paging"
	"repro/internal/rng"
	"repro/internal/sgx"
	"repro/internal/uarch"
	"repro/internal/userspace"
	"repro/internal/winkernel"
)

// victim bundles a booted target machine with the ground-truth handles the
// job executor scores against.
type victim struct {
	m      *machine.Machine
	kernel *linux.Kernel      // linux-class victims
	win    *winkernel.Kernel  // windows-class victims
	proc   *userspace.Process // user-class victims
}

// session is a victim plus a calibrated prober, rewound to its saved
// snapshot between jobs. For the stateless attack kinds the snapshot is the
// post-calibration state and never moves — every job replays from the same
// point. For the temporal kinds (behaviorspy, appfingerprint) the session
// is *stateful*: after each job the session re-snapshots, so the next job
// continues the victim's timeline where the previous window ended. A
// session executes one job at a time; the cache hands each session to
// exactly one executor.
type session struct {
	key string
	victim
	p *core.Prober
	// state is the snapshot every job on this session starts from: the
	// post-calibration checkpoint for stateless kinds, the end of the
	// previous window for temporal kinds.
	state core.SessionState
	// cachedCal reports the session skipped Calibrate via the calibration
	// cache.
	cachedCal bool
	// quarantined marks a session the scheduler condemned (panic, corrupt
	// restore, watchdog abandonment): release drops it instead of parking
	// it, so a condemned session is never re-adopted. Guarded by the
	// cache's mutex.
	quarantined bool

	// Temporal-session state (nil/zero for stateless kinds).
	//
	// drv replays the victim's activity timelines; truth holds the ground
	// truth for scoring; nextT0 is where the next observation window
	// starts on the victim timeline.
	drv    *behavior.Driver
	truth  []*behavior.Timeline
	spy    *core.BehaviorSpy
	fp     *core.AppFingerprinter
	nextT0 float64
}

// sessionCache pools sessions per victim key and caches calibrations so a
// fresh session for a known victim configuration skips threshold
// calibration entirely (bit-identically — see core.NewProberFromCalibration).
type sessionCache struct {
	mu   sync.Mutex
	free map[string][]*session
	cals map[string]core.Calibration
	// made counts sessions ever built (cache misses); hits counts
	// acquisitions served from a parked session; calHits counts
	// calibrations skipped; quarantined counts sessions condemned and
	// dropped; evicted counts healthy sessions dropped at the idle cap.
	made        int
	hits        int
	calHits     int
	quarantined int
	evicted     int
	// max bounds the number of idle sessions kept (0 = unbounded).
	max  int
	idle int
}

func newSessionCache(max int) *sessionCache {
	return &sessionCache{
		free: make(map[string][]*session),
		cals: make(map[string]core.Calibration),
		max:  max,
	}
}

// acquire returns a session for the spec's victim, reusing an idle one
// when available and building (boot + calibrate-or-replay) otherwise. The
// returned flag reports reuse. Callers must release the session after the
// job. A non-nil hook is installed for the build phase: boot and
// calibration faults fire through it on cache misses (cache hits build
// nothing, so they draw nothing — the documented cache-dependence of the
// boot/calibrate sites).
func (c *sessionCache) acquire(spec JobSpec, hook func(op string) error) (*session, bool, error) {
	key := spec.victimKey()
	c.mu.Lock()
	if list := c.free[key]; len(list) > 0 {
		s := list[len(list)-1]
		list[len(list)-1] = nil
		c.free[key] = list[:len(list)-1]
		c.idle--
		c.hits++
		c.mu.Unlock()
		return s, true, nil
	}
	cal, haveCal := c.cals[key]
	c.mu.Unlock()

	// Boot outside the lock: victim construction is the expensive part and
	// concurrent executors must not serialize on it.
	s, err := buildSession(spec, cal, haveCal, hook)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	c.made++
	if haveCal {
		c.calHits++
	} else if _, ok := c.cals[key]; !ok {
		c.cals[key] = s.p.CalibrationSnapshot()
	}
	c.mu.Unlock()
	return s, false, nil
}

// release parks the session for reuse (or drops it when the idle cap is
// reached, or when it was quarantined).
func (c *sessionCache) release(s *session) {
	if s == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.quarantined {
		return // condemned: never re-adopted; the next boot rebuilds it
	}
	if c.max > 0 && c.idle >= c.max {
		c.evicted++
		return // drop; the calibration cache still covers the next boot
	}
	c.free[s.key] = append(c.free[s.key], s)
	c.idle++
}

// quarantine condemns a session: it will be dropped at release instead of
// parked, and can never be adopted by another job. The cached calibration
// for its victim key is untouched — it was taken from a healthy build, and
// it is what makes the replacement boot bit-identical. Nil-safe (cloud
// attempts have no session).
func (c *sessionCache) quarantine(s *session) {
	if s == nil {
		return
	}
	c.mu.Lock()
	if !s.quarantined {
		s.quarantined = true
		c.quarantined++
	}
	c.mu.Unlock()
}

// cacheStats is the full session/calibration-cache effectiveness snapshot:
// the hit/miss/evict counters the per-instance /metrics series and /stats
// expose (a session hit reuses a parked session wholesale; a calibration
// hit is a fresh boot that skipped Calibrate via the cached thresholds).
type cacheStats struct {
	// SessionHits counts acquisitions served from a parked session;
	// SessionMisses counts acquisitions that had to build (equal to
	// sessions made).
	SessionHits   int
	SessionMisses int
	// CalibrationHits counts builds that replayed a cached calibration;
	// CalibrationMisses counts builds that ran Calibrate from scratch.
	CalibrationHits   int
	CalibrationMisses int
	// Quarantined counts condemned sessions; Evicted counts healthy
	// sessions dropped at the idle cap.
	Quarantined int
	Evicted     int
}

// snapshot returns the cache's full effectiveness counters.
func (c *sessionCache) snapshot() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		SessionHits:       c.hits,
		SessionMisses:     c.made,
		CalibrationHits:   c.calHits,
		CalibrationMisses: c.made - c.calHits,
		Quarantined:       c.quarantined,
		Evicted:           c.evicted,
	}
}

// buildSession boots the spec's victim and produces a calibrated prober —
// via the cached calibration when one is supplied, via core.NewProber
// otherwise. The construction sequence per victim class is exactly the
// direct-call recipe (cmd/avxattack, the examples), which is what makes
// service results bit-identical to direct core calls.
//
// A non-nil hook is installed on the machine for the build's duration: the
// boot site fires right after machine construction and the calibrate site
// inside core.Calibrate. The hook is cleared before the session is
// returned — parked sessions carry no hook; job attempts install their
// own.
func buildSession(spec JobSpec, cal core.Calibration, haveCal bool, hook func(op string) error) (*session, error) {
	preset := uarch.ByName(spec.CPU)
	if preset == nil {
		return nil, fmt.Errorf("service: no CPU preset matches %q", spec.CPU)
	}
	m := machine.New(preset, spec.Seed)
	if hook != nil {
		m.FaultHook = hook
		defer func() { m.FaultHook = nil }()
		if err := m.Fire("boot"); err != nil {
			return nil, err
		}
	}
	v := victim{m: m}
	switch spec.Kind {
	case KindKernelBase, KindModules, KindKPTI, KindBehaviorSpy, KindAppFingerprint, KindDefenseEval:
		k, err := linux.Boot(m, linux.Config{
			Seed:             spec.Seed,
			KPTI:             spec.Kind == KindKPTI,
			FLARE:            spec.FLARE,
			FGKASLR:          spec.FGKASLR,
			TrampolineOffset: spec.Trampoline,
		})
		if err != nil {
			return nil, err
		}
		v.kernel = k
	case KindWindows:
		wk, err := winkernel.Boot(m, winkernel.Config{Seed: spec.Seed, Drivers: spec.Drivers})
		if err != nil {
			return nil, err
		}
		v.win = wk
	case KindUserScan:
		if _, err := linux.Boot(m, linux.Config{Seed: spec.Seed}); err != nil {
			return nil, err
		}
		proc, err := userspace.Build(m, userspace.Config{
			Seed:           spec.Seed,
			EntropyBits:    spec.EntropyBits,
			HideLastRWPage: true,
		})
		if err != nil {
			return nil, err
		}
		v.proc = proc
		if spec.SGX {
			// The enclave stays entered for the session's lifetime; the
			// checkpoint below captures the in-enclave state.
			if _, err := sgx.Enter(m, sgx.RDTSC); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("service: kind %q does not use sessions", spec.Kind)
	}

	s := &session{key: spec.victimKey(), victim: v}
	if haveCal {
		s.p = core.NewProberFromCalibration(m, core.Options{}, cal)
		s.cachedCal = true
		// Re-checkpoint on this machine: the adopted state's page-table
		// mutation counters belong to the calibrated original, and the
		// session's per-job Restore verifies them against *this* boot.
		s.state = s.p.Checkpoint()
	} else {
		p, err := core.NewProber(m, core.Options{})
		if err != nil {
			return nil, err
		}
		s.p = p
		s.state = p.Checkpoint()
	}
	if spec.Kind == KindBehaviorSpy || spec.Kind == KindAppFingerprint {
		if err := s.initTemporal(spec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// activityFor maps a watched module to the §IV-E activity that exercises
// it, with a generic 30 Hz activity for the other watchable modules
// (Validate rejects any target outside the uniquely-identifiable set
// before a job reaches this point, so the default case never fabricates
// activity for an unknown name).
func activityFor(module string) behavior.Activity {
	switch module {
	case "bluetooth":
		return behavior.BluetoothAudio()
	case "psmouse":
		return behavior.MouseMovement()
	case "usbhid":
		return behavior.Keystrokes()
	default:
		return behavior.Activity{Name: module, Module: module, PagesTouched: 6, EventHz: 30}
	}
}

// spyTimelines derives the spy victim's activity timelines from the spec:
// one unbounded bursty timeline per watched module, each drawing from its
// own source split off a spec-seeded parent. Per-timeline sources matter:
// the timelines extend lazily, so draws from one shared source would
// depend on which timeline extended first — with a split source each
// module's whole future is a pure function of (seed, target order), no
// matter when or in what order windows materialize it. Both the session
// builder and the parity suite's direct runs construct timelines here, so
// the ground truth cannot drift between them.
func spyTimelines(spec JobSpec) []*behavior.Timeline {
	r := rng.New(spec.Seed ^ 0xbe4a71e5)
	tls := make([]*behavior.Timeline, 0, len(spec.Targets))
	for _, name := range spec.Targets {
		tls = append(tls, behavior.UnboundedTimeline(activityFor(name), 12, 18, r.Split()))
	}
	return tls
}

// initTemporal prepares a stateful temporal session: the watched modules
// are located with the module attack (the same reconnaissance a real spy
// runs once per victim), the victim's activity timelines are derived
// deterministically from the spec seed, and the session snapshot is taken
// at timeline position 0 — the state the first window restores.
func (s *session) initTemporal(spec JobSpec) error {
	located := core.Modules(s.p, core.SizeTable(s.kernel.ProcModules()))
	switch spec.Kind {
	case KindBehaviorSpy:
		targets, err := core.LocateTargets(located, spec.Targets...)
		if err != nil {
			return err
		}
		// The victim's day: one unbounded bursty timeline per watched
		// module, a pure function of the victim seed — windows at any
		// session depth observe real activity, never a truncated horizon.
		tls := spyTimelines(spec)
		drv, err := behavior.NewDriver(s.kernel, tls...)
		if err != nil {
			return err
		}
		drv.SetResolution(spec.TickSec)
		s.drv, s.truth = drv, tls
		s.spy = &core.BehaviorSpy{P: s.p, Targets: targets, PagesPerModule: 10, TickSec: spec.TickSec}
	case KindAppFingerprint:
		// Watch the union of the profile population's modules — the spy
		// must see which are active AND which are idle to classify.
		watch := make(map[string]linux.LoadedModule)
		var truthProf core.AppProfile
		for _, prof := range core.StandardAppProfiles() {
			if prof.Name == spec.App {
				truthProf = prof
			}
			for _, mn := range prof.Modules {
				name := appModuleName(mn)
				if _, ok := watch[name]; ok {
					continue
				}
				targets, err := core.LocateTargets(located, name)
				if err != nil {
					return err
				}
				watch[name] = targets[0]
			}
		}
		// The app's modules stay active for the whole (unbounded) session.
		drv, err := behavior.NewDriver(s.kernel, core.TimelinesFor(truthProf, math.Inf(1))...)
		if err != nil {
			return err
		}
		drv.SetResolution(spec.TickSec)
		s.drv = drv
		s.fp = &core.AppFingerprinter{
			P:        s.p,
			Watch:    watch,
			Ticks:    spec.Ticks,
			TickSec:  spec.TickSec,
			Profiles: core.StandardAppProfiles(),
		}
	}
	// Timeline position 0 with the reconnaissance done: the state the
	// first window starts from.
	s.state = s.p.Checkpoint()
	return nil
}

// appModuleName strips the "alias:real" profile notation.
func appModuleName(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// libWindow returns the §IV-F scan range of the session's process: the
// library area with the same margins the sgxbreak example and cmd use.
func (s *session) libWindow() (paging.VirtAddr, paging.VirtAddr) {
	libs := s.proc.Libs
	return libs[0].Base - 16*paging.Page4K, libs[len(libs)-1].End() + 8*paging.Page4K
}
