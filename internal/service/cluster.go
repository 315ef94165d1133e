package service

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Routing policies of the cluster router.
const (
	// RouteHash is victim-key-affinity routing (the default): jobs are
	// placed by consistent-hashing JobSpec.routingKey onto the instance
	// ring, so every job against one victim lands on the same instance —
	// its session and calibration caches stay hot, and its temporal
	// windows stay globally ordered on one scheduler.
	RouteHash = "hash"
	// RouteShuffle is the affinity ablation: shuffled round-robin over a
	// seeded instance permutation. Placement is victim-blind, so one
	// victim's jobs spread across instances and every instance pays its
	// own boot+calibrate for that victim — the baseline the affinity
	// benchmark beats.
	RouteShuffle = "shuffle"
)

// ClusterConfig tunes a single-process scheduler cluster.
type ClusterConfig struct {
	// Instances is the number of independent Scheduler instances behind
	// the router. <= 1 means one instance, which behaves exactly like
	// New(Config): the same job IDs, fault seed and unlabeled series.
	Instances int
	// HashReplicas is the virtual-node count per instance on the
	// consistent-hash ring (0 = DefaultHashReplicas). More replicas
	// smooth the per-instance key share toward 1/N.
	HashReplicas int
	// Route selects the routing policy: RouteHash (default) or
	// RouteShuffle (the affinity ablation).
	Route string
	// RouteSeed seeds the shuffle permutation (RouteShuffle only).
	RouteSeed uint64
	// Config is the per-instance scheduler configuration. Every instance
	// receives its own copy — own bounded queue, executors, scan pool,
	// session + calibration caches, fault injector and obs plane. With
	// more than one instance, each instance's injector seed is split
	// deterministically off Config.Fault.Seed (instance i never shares a
	// fault stream with instance j).
	Config Config
	// Tune optionally rewrites one instance's configuration after the
	// per-instance defaults (fault-seed split included) are applied —
	// the chaos suite uses it to aim sustained faults at exactly one
	// instance while the rest stay healthy.
	Tune func(instance int, cfg Config) Config
}

// Cluster runs N independent Scheduler instances behind a consistent-hash
// router — the one service surface scand serves, with a single scheduler
// as its N = 1 case. Each instance owns the full scheduler stack (queue,
// executors, scan pool, session/calibration caches, fault injector,
// metrics plane); the router consistent-hashes each job's victim key to
// an instance, proxies Submit/Wait/Drain, and rolls per-instance stats
// and metrics up into one cluster view.
// Placement never changes results: a job is a pure function of its spec,
// so cluster output is bit-identical to the single-scheduler path — the
// cluster parity suite enforces it.
//
// Admission control is per-instance: an instance at its shed watermark or
// with a full queue rejects its own submissions (429 upstream) while the
// other instances keep accepting — an overloaded or faulty shard degrades
// its key range, never the cluster.
type Cluster struct {
	cfg   ClusterConfig
	insts []*Scheduler
	ring  *ring
	reg   *obs.Registry

	// routed counts accepted submissions per instance (router-side view;
	// rejected submissions are counted by the owning instance's store).
	routed []atomic.Uint64
	// shuffleSeq walks the shuffled round-robin permutation (RouteShuffle).
	shuffleSeq  atomic.Uint64
	shufflePerm []int
}

// instanceFaultSeed splits the cluster fault seed into instance i's
// injector seed (splitmix64 finalizer over the instance index): distinct
// per instance, a pure function of (base, i), and never the base itself —
// so instance fault schedules are mutually independent and reproducible.
func instanceFaultSeed(base uint64, i int) uint64 {
	z := base + (uint64(i)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewCluster starts a scheduler cluster with cfg.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Instances < 1 {
		cfg.Instances = 1
	}
	if cfg.Route == "" {
		cfg.Route = RouteHash
	}
	n := cfg.Instances
	c := &Cluster{
		cfg:    cfg,
		insts:  make([]*Scheduler, n),
		ring:   newRing(n, cfg.HashReplicas),
		reg:    obs.NewRegistry(),
		routed: make([]atomic.Uint64, n),
	}
	if cfg.Route == RouteShuffle {
		c.shufflePerm = rng.New(cfg.RouteSeed ^ 0x5c057e12).Perm(n)
	}
	c.reg.GaugeFunc("scand_cluster_instances", "Scheduler instances behind the router.",
		func() float64 { return float64(n) })
	for i := 0; i < n; i++ {
		ic := cfg.Config
		var il []obs.Label
		if n > 1 {
			ic.Fault.Seed = instanceFaultSeed(cfg.Config.Fault.Seed, i)
			ic.instance = strconv.Itoa(i)
			il = []obs.Label{obs.L("instance", ic.instance)}
		}
		if cfg.Tune != nil {
			ic = cfg.Tune(i, ic)
		}
		// Globally unique job IDs with an O(1) id→instance mapping:
		// instance i issues i + N, i + 2N, ... so id mod N == i. Pinned
		// after Tune, like the shared registry, so no per-instance tuning
		// can break routing or the rollup.
		ic.idOffset, ic.idStride = uint64(i), uint64(n)
		ic.metrics = c.reg
		c.reg.CounterFunc("scand_router_routed_total", "Submissions the router accepted onto each instance.",
			func() float64 { return float64(c.routed[i].Load()) }, il...)
		c.insts[i] = New(ic)
	}
	return c
}

// Instances returns the cluster size.
func (c *Cluster) Instances() int { return len(c.insts) }

// Instance exposes one scheduler instance (tests, the rollup and the
// daemon banner's effective per-instance config).
func (c *Cluster) Instance(i int) *Scheduler { return c.insts[i] }

// Metrics exposes the cluster's one metric registry: every instance's
// metrics plane (instance-labeled when N > 1) plus the router's own
// series.
func (c *Cluster) Metrics() *obs.Registry { return c.reg }

// RouteSpec reports which instance a spec routes to (after normalization,
// since defaults are part of the victim key). The chaos and parity suites
// use it to steer keys at specific instances.
func (c *Cluster) RouteSpec(spec JobSpec) (int, error) {
	norm, err := spec.normalized()
	if err != nil {
		return 0, err
	}
	if c.cfg.Route == RouteShuffle {
		return -1, fmt.Errorf("service: shuffle routing has no stable placement")
	}
	return c.ring.lookup(norm.routingKey()), nil
}

// instanceFor maps a cluster job ID back to its owning instance.
func (c *Cluster) instanceFor(id uint64) *Scheduler {
	return c.insts[int(id%uint64(len(c.insts)))]
}

// Submit validates, routes and enqueues a job on its owning instance. The
// spec is normalized *before* routing — defaults are part of the victim
// key, so an empty-CPU spec and its filled-in twin must land on the same
// instance. Backpressure is per-instance: the owning instance's queue or
// watermark rejects, the rest of the cluster is untouched.
func (c *Cluster) Submit(spec JobSpec) (*Job, error) {
	norm, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	var inst int
	if c.cfg.Route == RouteShuffle {
		inst = c.shufflePerm[int(c.shuffleSeq.Add(1)-1)%len(c.shufflePerm)]
	} else {
		inst = c.ring.lookup(norm.routingKey())
	}
	j, err := c.insts[inst].Submit(norm)
	if err != nil {
		return nil, err
	}
	c.routed[inst].Add(1)
	return j, nil
}

// Wait blocks until the job finishes and returns its result.
func (c *Cluster) Wait(j *Job) (*Result, error) { return c.instanceFor(j.ID).Wait(j) }

// WaitCtx is Wait bounded by a context.
func (c *Cluster) WaitCtx(ctx context.Context, j *Job) (*Result, error) {
	return c.instanceFor(j.ID).WaitCtx(ctx, j)
}

// Trace returns a sampled job's lifecycle trace from its owning instance.
func (c *Cluster) Trace(id uint64) (*obs.Trace, bool) { return c.instanceFor(id).Trace(id) }

// JobSnapshot returns a queryable job's public state from its owning
// instance.
func (c *Cluster) JobSnapshot(id uint64) (Job, bool) { return c.instanceFor(id).JobSnapshot(id) }

// JobDone returns the completion channel of a retained job.
func (c *Cluster) JobDone(id uint64) (<-chan struct{}, bool) { return c.instanceFor(id).JobDone(id) }

// Drain drains every instance concurrently and returns when all executors
// have stopped — the cluster's graceful-shutdown path. Safe to call more
// than once.
func (c *Cluster) Drain() {
	var wg sync.WaitGroup
	for _, s := range c.insts {
		wg.Add(1)
		go func(s *Scheduler) { defer wg.Done(); s.Drain() }(s)
	}
	wg.Wait()
}

// InstanceStats is one instance's row in the cluster rollup.
type InstanceStats struct {
	Instance int `json:"instance"`
	// Routed counts submissions the router accepted onto this instance.
	Routed uint64 `json:"routed"`
	// QueueDepth is the instance's current bounded-queue occupancy.
	QueueDepth int `json:"queue_depth"`
	// Stats is the instance's own aggregate view (cache hit/miss counters
	// included), exactly what the instance would serve standalone.
	Stats Stats `json:"stats"`
}

// ClusterStats is the cluster-wide /stats payload: the merged aggregate
// (counters summed across instances, latency quantiles from the merged
// histogram — obs.Histogram.AddFrom — and jobs/s over the global
// first-submit → last-finish span) plus the per-instance breakdown that
// makes the affinity win, and any per-instance degradation, visible.
type ClusterStats struct {
	Stats
	Instances []InstanceStats `json:"instances"`
}

// Stats computes the cluster rollup: the instances' raw store counters
// and latency histograms merged and run through the same formula as a
// single store, plus the summed cache, pool and fault counters.
func (c *Cluster) Stats() ClusterStats {
	var out ClusterStats
	var agg storeAgg
	lat := &obs.Histogram{}
	for i, s := range c.insts {
		ist := s.Stats() // evicts TTL-expired jobs before the snapshot below
		agg.add(s.store.aggregate())
		lat.AddFrom(s.store.latencyHistogram())
		out.Instances = append(out.Instances, InstanceStats{
			Instance:   i,
			Routed:     c.routed[i].Load(),
			QueueDepth: s.QueueDepth(),
			Stats:      ist,
		})
	}
	out.Stats = agg.stats(lat)
	for _, row := range out.Instances {
		ist := row.Stats
		out.Sessions += ist.Sessions
		out.SessionHits += ist.SessionHits
		out.CalibrationsReused += ist.CalibrationsReused
		out.Quarantined += ist.Quarantined
		out.SessionsEvicted += ist.SessionsEvicted
		out.PoolReplicas += ist.PoolReplicas
		out.FaultsInjected += ist.FaultsInjected
	}
	return out
}
