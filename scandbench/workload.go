package main

import (
	"fmt"
	"math"
	"sort"
)

// spec is one job as sent to POST /jobs. Every field the daemon would
// otherwise default is written out, so the benchmark's inputs stay pinned
// even if the program's defaults change.
type spec struct {
	Kind             string    `json:"kind"`
	CPU              string    `json:"cpu,omitempty"`
	Seed             uint64    `json:"seed"`
	Defense          string    `json:"defense,omitempty"`
	Function         string    `json:"function,omitempty"`
	RerandPeriodsSec []float64 `json:"rerand_periods_sec,omitempty"`
	Trampoline       uint64    `json:"trampoline,omitempty"`
	Drivers          int       `json:"drivers,omitempty"`
	EntropyBits      int       `json:"entropy_bits,omitempty"`
	SGX              bool      `json:"sgx,omitempty"`
	Provider         string    `json:"provider,omitempty"`
	Targets          []string  `json:"targets,omitempty"`
	DurationSec      float64   `json:"duration_sec,omitempty"`
	TickSec          float64   `json:"tick_sec,omitempty"`
	App              string    `json:"app,omitempty"`
	Ticks            int       `json:"ticks,omitempty"`
	ScanWorkers      *int      `json:"scan_workers,omitempty"`
}

// entry is one pinned job template: the label its per-layer metrics carry,
// the spec without a seed, and its nominal hot cost on a 2-vCPU host, which
// only balances the split of entries across clients.
type entry struct {
	label     string
	spec      spec
	nominalMs float64
}

// temporal reports a stateful kind whose session carries a timeline from
// job to job, so its results are not a pure function of the spec.
func (e entry) temporal() bool {
	return e.spec.Kind == "behaviorspy" || e.spec.Kind == "appfingerprint"
}

// sessionEntries are the 12 session-backed entries of the service's default
// mix (every kind but cloud), with the daemon's defaults filled in.
var sessionEntries = []entry{
	{"kernelbase-12400F", spec{Kind: "kernelbase", CPU: "12400F"}, 3.8},
	{"kernelbase-5600X", spec{Kind: "kernelbase", CPU: "5600X"}, 8.1},
	{"kpti-12400F", spec{Kind: "kpti", CPU: "12400F", Trampoline: 0xc00000}, 2.9},
	{"modules-1065G7", spec{Kind: "modules", CPU: "1065G7"}, 15},
	{"userscan-1065G7", spec{Kind: "userscan", CPU: "1065G7", EntropyBits: 12}, 3.6},
	{"userscan-sgx-1065G7", spec{Kind: "userscan", CPU: "1065G7", EntropyBits: 12, SGX: true}, 3.7},
	{"kernelbase-9900", spec{Kind: "kernelbase", CPU: "9900"}, 2.3},
	{"behaviorspy-1065G7", spec{Kind: "behaviorspy", CPU: "1065G7", Targets: []string{"bluetooth", "psmouse"}, DurationSec: 10, TickSec: 1}, 18},
	{"appfingerprint-1065G7", spec{Kind: "appfingerprint", CPU: "1065G7", App: "fps-game", Ticks: 8, TickSec: 1}, 17.7},
	{"flare-12400F", spec{Kind: "defenseeval", CPU: "12400F", Defense: "flare"}, 10},
	{"fgkaslr-12400F", spec{Kind: "defenseeval", CPU: "12400F", Defense: "fgkaslr", Function: "tcp_sendmsg"}, 2.2},
	{"rerand-1065G7", spec{Kind: "defenseeval", CPU: "1065G7", Defense: "rerand", RerandPeriodsSec: []float64{0.0001, 0.01, 1}}, 4.4},
}

// sweepEntries are the two kinds whose sweeps gain from fan-out. Their
// scan_workers is set per run to the host's CPU count.
var sweepEntries = []entry{
	{"windows-12400F", spec{Kind: "windows", CPU: "12400F", Drivers: 24}, 110},
	{"cloud-azure", spec{Kind: "cloud", Provider: "azure"}, 110},
}

// allEntries is every pinned entry; a job's entry field indexes it.
var allEntries = append(append([]entry(nil), sessionEntries...), sweepEntries...)

const (
	windowsEntry = 12
	azureEntry   = 13
)

// The workloads. Why each exists is in README.md.
const (
	hotSessions = "hot-sessions"
	coldBoots   = "cold-boots"
	deepSweeps  = "deep-sweeps"
)

var workloads = []string{hotSessions, coldBoots, deepSweeps}

// Per-epoch shape. An epoch is one daemon lifetime: start, warm-up, timed
// phase, kill. Each epoch draws fresh victims, so a run averages over many
// victim seeds; the number of epochs grows with --seconds while the work
// in one epoch stays fixed.
const (
	hotWarmPerKey    = 3  // the first builds the session
	hotRoundsPerKey  = 50 // timed jobs per key and epoch
	coldWarmPerEntry = 2  // never-seen victims, not timed
	coldPerEntry     = 15 // timed jobs per entry and epoch; bounds daemon memory
	deepWindowsKeys  = 6  // windows sessions built in warm-up
	deepWarmAzure    = 2  // azure jobs that fill the scan pool
	deepTimedPairs   = 25 // timed windows+azure pairs per epoch
	seedsPerEpoch    = 4096
)

// epochSeconds is about how long one epoch's timed phase takes on a 2-vCPU
// host; a run has --seconds/epochSeconds epochs.
var epochSeconds = map[string]float64{hotSessions: 1.5, coldBoots: 1, deepSweeps: 5}

// job is one submission: the entry it instantiates and its wire spec.
type job struct {
	entry int
	spec  spec
}

// epochPlan is one daemon lifetime's job lists, one per client.
type epochPlan struct {
	warm  [][]job
	timed [][]job
}

// plan is a run's whole input: a pure function of workload, seed, seconds
// and the client count (which only decides who submits what).
type plan struct {
	workload string
	clients  int
	epochs   []epochPlan
}

// splitmix64 is the seed mixer behind every victim seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// victimSeed returns the n-th victim seed of a run. Distinct n give
// distinct seeds, so a run never repeats a victim it did not mean to.
func victimSeed(workloadSeed, n uint64) uint64 {
	return splitmix64(workloadSeed)>>24 + n
}

func (e entry) at(seed uint64, scanWorkers int) spec {
	s := e.spec
	s.Seed = seed
	if e.spec.Kind == "windows" || e.spec.Kind == "cloud" {
		w := scanWorkers
		s.ScanWorkers = &w
	}
	return s
}

// epochs returns how many epochs a run of the workload has at seconds.
func epochs(workload string, seconds int) int {
	return max(2, int(math.Round(float64(seconds)/epochSeconds[workload])))
}

// makePlan builds the job lists of a run. clients is the number of
// closed-loop clients (the host's CPU count for the session workloads, one
// for deep-sweeps); scanWorkers is what deep-sweeps jobs ask for.
func makePlan(workload string, seed uint64, seconds, clients, scanWorkers int) (plan, error) {
	if clients < 1 || seconds < 1 {
		return plan{}, fmt.Errorf("need at least one client and one second")
	}
	p := plan{workload: workload, clients: clients}
	if workload == deepSweeps {
		p.clients = 1
	}
	n := epochs(workload, seconds)
	for ep := 0; ep < n; ep++ {
		base := uint64(ep) * seedsPerEpoch
		var e epochPlan
		switch workload {
		case hotSessions:
			e = hotEpoch(seed, base, p.clients)
		case coldBoots:
			e = coldEpoch(seed, base, p.clients)
		case deepSweeps:
			e = deepEpoch(seed, base, scanWorkers)
		default:
			return plan{}, fmt.Errorf("unknown workload %q (want %v)", workload, workloads)
		}
		p.epochs = append(p.epochs, e)
	}
	return p, nil
}

// splitEntries assigns the session entries to clients, heaviest first to
// the least-loaded client, so the clients finish their fixed lists at about
// the same time. Each entry (and so each victim key) has one owner.
func splitEntries(clients int) [][]int {
	order := make([]int, len(sessionEntries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sessionEntries[order[a]].nominalMs > sessionEntries[order[b]].nominalMs
	})
	owned := make([][]int, clients)
	load := make([]float64, clients)
	for _, i := range order {
		c := 0
		for k := range load {
			if load[k] < load[c] {
				c = k
			}
		}
		owned[c] = append(owned[c], i)
		load[c] += sessionEntries[i].nominalMs
	}
	for _, o := range owned {
		sort.Ints(o)
	}
	return owned
}

// hotEpoch gives every session entry one victim for the whole epoch: the
// warm-up builds all 12 sessions and every timed job reuses one.
func hotEpoch(seed, base uint64, clients int) epochPlan {
	e := epochPlan{warm: make([][]job, clients), timed: make([][]job, clients)}
	for c, owned := range splitEntries(clients) {
		for r := 0; r < hotWarmPerKey+hotRoundsPerKey; r++ {
			for _, i := range owned {
				j := job{entry: i, spec: sessionEntries[i].at(victimSeed(seed, base+uint64(i)), 0)}
				if r < hotWarmPerKey {
					e.warm[c] = append(e.warm[c], j)
				} else {
					e.timed[c] = append(e.timed[c], j)
				}
			}
		}
	}
	return e
}

// coldEpoch has the same entries and split as hotEpoch, but every job runs
// against a victim no earlier job of the run has seen.
func coldEpoch(seed, base uint64, clients int) epochPlan {
	e := epochPlan{warm: make([][]job, clients), timed: make([][]job, clients)}
	n := base
	for r := 0; r < coldWarmPerEntry+coldPerEntry; r++ {
		for c, owned := range splitEntries(clients) {
			for _, i := range owned {
				j := job{entry: i, spec: sessionEntries[i].at(victimSeed(seed, n), 0)}
				n++
				if r < coldWarmPerEntry {
					e.warm[c] = append(e.warm[c], j)
				} else {
					e.timed[c] = append(e.timed[c], j)
				}
			}
		}
	}
	return e
}

// deepEpoch alternates windows jobs over a few warm sessions with azure
// jobs, one client, every job fanning its sweep over scanWorkers replicas.
func deepEpoch(seed, base uint64, scanWorkers int) epochPlan {
	win := func(k int) job {
		return job{entry: windowsEntry, spec: allEntries[windowsEntry].at(victimSeed(seed, base+uint64(k)), scanWorkers)}
	}
	azure := func(k int) job {
		return job{entry: azureEntry, spec: allEntries[azureEntry].at(victimSeed(seed, base+deepWindowsKeys+uint64(k)), scanWorkers)}
	}
	var warm, timed []job
	for k := 0; k < deepWindowsKeys; k++ {
		warm = append(warm, win(k))
	}
	for k := 0; k < deepWarmAzure; k++ {
		warm = append(warm, azure(k))
	}
	for k := 0; k < deepTimedPairs; k++ {
		timed = append(timed, win(k%deepWindowsKeys), azure(deepWarmAzure+k))
	}
	return epochPlan{warm: [][]job{warm}, timed: [][]job{timed}}
}
