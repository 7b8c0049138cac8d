package main

import (
	"fmt"
	"math/rand"
)

// jobSpec is one tuning request as a tenant submits it: the only input the
// server receives.
type jobSpec struct {
	Tenant   string  `json:"tenant"`
	Workload string  `json:"workload"`
	InputGB  float64 `json:"inputGB"`
}

// The DS1/DS2/DS3 input sizes in GB of Table I and of its extension
// workloads, as internal/experiments/table1.go calibrates them.
var (
	table1Sizes = []struct {
		name string
		gb   [3]float64
	}{
		{"pagerank", [3]float64{8, 11, 32}},
		{"bayes", [3]float64{8, 28, 44}},
		{"wordcount", [3]float64{8, 16, 32}},
	}
	extensionSizes = []struct {
		name string
		gb   [3]float64
	}{
		{"join", [3]float64{3, 8, 24}},
		{"kmeans", [3]float64{8, 16, 48}},
		{"sort", [3]float64{8, 16, 48}},
	}
)

// canarySpec is the job every set-up runs alone on a fresh server; its
// result is pinned by golden.json.
var canarySpec = jobSpec{Tenant: "canary", Workload: "pagerank", InputGB: 8}

type sized struct {
	workload string
	gb       float64
}

func table1Mix(extension bool) []sized {
	var out []sized
	for _, w := range table1Sizes {
		for _, gb := range w.gb {
			out = append(out, sized{w.name, gb})
		}
	}
	if extension {
		for _, w := range extensionSizes {
			for _, gb := range w.gb {
				out = append(out, sized{w.name, gb})
			}
		}
	}
	return out
}

// specStream yields an endless, seed-determined job sequence: rounds over
// the mix, each round in a fresh seeded order. Each (workload, size) class
// belongs to one tenant, class i to tenant i mod tenants, as a tenant
// resubmits its own pipelines; so the seed moves when each tenant's next
// session comes, not which sessions a run holds.
type specStream struct {
	rng     *rand.Rand
	mix     []sized
	order   []int
	tenants int
	prefix  string
	n       int
}

func newSpecStream(seed int64, mix []sized, tenants int, prefix string) *specStream {
	return &specStream{rng: rand.New(rand.NewSource(seed)), mix: mix, tenants: tenants, prefix: prefix}
}

func (s *specStream) next() jobSpec {
	i := s.n % len(s.mix)
	if i == 0 {
		s.order = s.rng.Perm(len(s.mix))
	}
	m := s.mix[s.order[i]]
	spec := jobSpec{
		Tenant:   fmt.Sprintf("%s%d", s.prefix, s.order[i]%s.tenants),
		Workload: m.workload,
		InputGB:  m.gb,
	}
	s.n++
	return spec
}

// workloadDef is one traffic mix of the benchmark.
type workloadDef struct {
	name string
	// backend is the server's persistence: "wal" on a fresh data dir,
	// "memory", or "prefilled" (wal on a copy of the prefilled dir).
	backend string
	// outstanding is the closed loop's concurrency.
	outstanding int
	mix         []sized
	tenants     int
	// readRate is the open-loop read rate per second, and reads the
	// routes it cycles through.
	readRate float64
	reads    []string
	// golden marks workloads whose canary runs on a fresh server and must
	// match golden.json.
	golden bool
}

// Routes of the read mixes. "job", "explain" and "trace" address the most
// recently completed job.
const (
	routeJob           = "job"
	routeExplain       = "explain"
	routeTrace         = "trace"
	routeHistory       = "history"
	routeEffectiveness = "effectiveness"
	routeQuery         = "query"
	routeMetrics       = "metrics"
	routeHealthz       = "healthz"
)

// allRoutes lists every read route, the order of the per-route metrics.
var allRoutes = []string{routeJob, routeExplain, routeTrace, routeHistory,
	routeEffectiveness, routeQuery, routeMetrics, routeHealthz}

// readRate is every workload's open-loop read rate, per second. The
// statistics set it, not a client population: it is the lowest rate in
// whole tens that gives the 1000 reads a p99 needs (ten beyond it) in the
// 30 s window of BENCHMARK.json. The repository's own clients poll far
// less often: a waiting `tunectl -server` reads its job every 500 ms,
// `tunectl top` sends six requests every 2 s and the dashboard four every
// 5 s. On table1-durable and fleet-volatile the reads exist so that every
// end-to-end metric is reported, so they are the two cheapest, the job
// view and /healthz; BASELINE.md shows they do not move the job metrics.
const readRate = 40

// Why each workload exists is recorded in BASELINE.md; in short:
// table1-durable is the production path, where the WAL group-commit wait
// dominates a job; fleet-volatile has no WAL, so the tuner and gp dominate
// and storage changes must show no effect; ops-reads runs the same layers
// the other way round (recovery, history and telemetry queries) under the
// read traffic that tunectl and the dashboard generate.
var workloads = map[string]workloadDef{
	"table1-durable": {
		name: "table1-durable", backend: "wal", outstanding: 4,
		mix: table1Mix(false), tenants: 4,
		readRate: readRate, reads: []string{routeJob, routeHealthz},
		golden: true,
	},
	"fleet-volatile": {
		name: "fleet-volatile", backend: "memory", outstanding: 4,
		mix: table1Mix(true), tenants: 8,
		readRate: readRate, reads: []string{routeJob, routeHealthz},
		golden: true,
	},
	"ops-reads": {
		name: "ops-reads", backend: "prefilled", outstanding: 1,
		mix: table1Mix(false), tenants: 4,
		// Nine slots, the job view (what a waiting tunectl polls) twice:
		// with the eight routes once each, the median read would sit on
		// the boundary between the fourth and fifth fastest routes and
		// jump between them from run to run.
		readRate: readRate, reads: append(append([]string(nil), allRoutes...), routeJob),
	},
}

// prefillJobs is how many pipelines set-up runs to fill the ops-reads
// data dir: 39 history records each (10 cloud trials, 3 probes, 25 disc
// trials, 1 baseline), about 10k records in all.
const prefillJobs = 256

// prefillTenant and prefillWorkload name a pair the prefill always holds,
// for the effectiveness read.
const (
	prefillTenant   = "prefill-0"
	prefillWorkload = "pagerank"
)
