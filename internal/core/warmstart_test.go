package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"seamlesstune/internal/history"
	"seamlesstune/internal/slo"
	"seamlesstune/internal/storage"
	"seamlesstune/internal/transfer"
	"seamlesstune/internal/tuner"
	"seamlesstune/internal/workload"
)

// referenceWarmStart is the rescanning source selection warmStart
// replaces: it clones every key's history through Query and fingerprints
// each from scratch. It is the oracle warmStart must match bit for bit.
func referenceWarmStart(s *Service, reg Registration) (transfer.SourceSelection, []tuner.Trial) {
	own := s.store.Query(history.Filter{Tenant: reg.Tenant, Workload: reg.Workload.Name()})
	target, err := transfer.FingerprintOf(transfer.WellConfigured(own))
	if err != nil {
		return transfer.SourceSelection{}, nil
	}
	candidates := make(map[history.WorkloadKey]transfer.Fingerprint)
	for _, key := range s.store.Workloads() {
		if key.Tenant == reg.Tenant && key.Workload == reg.Workload.Name() {
			continue
		}
		recs := s.store.Query(history.Filter{Tenant: key.Tenant, Workload: key.Workload})
		fp, err := transfer.FingerprintOf(transfer.WellConfigured(recs))
		if err != nil {
			continue
		}
		candidates[key] = fp
	}
	if len(candidates) == 0 {
		return transfer.SourceSelection{}, nil
	}
	sel := transfer.SelectSource(target, candidates, s.transferThreshold)
	if !sel.Accepted {
		return sel, nil
	}
	recs := s.store.Query(history.Filter{Tenant: sel.Source.Tenant, Workload: sel.Source.Workload})
	return sel, transfer.WarmStartTrials(recs, s.sparkSpace, 20)
}

// referenceEffectiveness is Effectiveness over cloned Query results.
func referenceEffectiveness(s *Service, tenant, wl string) (EffectivenessReport, bool) {
	minPerGB := func(recs []history.Record) float64 {
		best, found := 0.0, false
		for _, r := range recs {
			if r.InputBytes <= 0 {
				continue
			}
			if v := r.RuntimeS / (float64(r.InputBytes) / (1 << 30)); !found || v < best {
				best, found = v, true
			}
		}
		return best
	}
	own := s.store.Query(history.Filter{Tenant: tenant, Workload: wl, SucceededOnly: true})
	if len(own) == 0 {
		return EffectivenessReport{}, false
	}
	bestOwn := minPerGB(own)
	bestKnown := minPerGB(s.store.Query(history.Filter{Workload: wl, SucceededOnly: true}))
	return EffectivenessReport{Tenant: tenant, Workload: wl, BestOwn: bestOwn, BestKnown: bestKnown,
		Effectiveness: slo.Effectiveness(bestOwn, bestKnown)}, true
}

// referenceQuery filters a Seq-ordered record list the way Query's
// contract says: matching records in Seq order, the last MaxN of them.
func referenceQuery(all []history.Record, f history.Filter) []history.Record {
	var out []history.Record
	for _, r := range all {
		if (f.Tenant == "" || r.Tenant == f.Tenant) && (f.Workload == "" || r.Workload == f.Workload) &&
			!(f.SucceededOnly && r.Failed) {
			out = append(out, r)
		}
	}
	if f.MaxN > 0 && len(out) > f.MaxN {
		out = out[len(out)-f.MaxN:]
	}
	return out
}

// referenceWorkloads lists the keys of a Seq-ordered record list in
// first-appearance order.
func referenceWorkloads(all []history.Record) []history.WorkloadKey {
	seen := make(map[history.WorkloadKey]bool)
	var out []history.WorkloadKey
	for _, r := range all {
		k := history.WorkloadKey{Tenant: r.Tenant, Workload: r.Workload}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func fingerprintBits(fp transfer.Fingerprint) [6]uint64 {
	return [6]uint64{
		math.Float64bits(fp.ShufflePerInput), math.Float64bits(fp.SpillPerInput),
		math.Float64bits(fp.GCFrac), math.Float64bits(fp.SecondsPerGB),
		math.Float64bits(fp.StageDepth), math.Float64bits(fp.FailRate),
	}
}

// randomRecord draws one execution of wl whose metrics follow a
// per-workload profile with noise, so fingerprints of the same workload
// land near each other and transfer is accepted for some targets and
// refused for others.
func randomRecord(rng *rand.Rand, s *Service, tenant string, wl int) history.Record {
	in := int64(1+rng.Intn(8)) << 30
	rt := (20 + 40*float64(wl)) * (0.6 + rng.Float64())
	shuffle := int64(float64(in) * (0.1 + 0.3*float64(wl)) * (0.8 + 0.4*rng.Float64()))
	return history.Record{
		Tenant:     tenant,
		Workload:   workload.All()[wl].Name(),
		InputBytes: in,
		Cluster:    "m5.xlarge x4",
		Config:     s.sparkSpace.Random(rng),
		RuntimeS:   rt,
		CostUSD:    rt / 100,
		Failed:     rng.Intn(10) == 0,
		Metrics: history.Metrics{
			ShuffleReadBytes:  shuffle,
			ShuffleWriteBytes: shuffle / 2,
			SpillBytes:        int64(rng.Intn(3)) * in / 4,
			GCSeconds:         rt * 0.05 * float64(wl%3) * rng.Float64(),
			Executors:         4,
			Stages:            2 + wl%4,
		},
	}
}

// TestWarmStartMatchesRescan drives the store through random appends
// across tenants and workloads, Resets that keep every key's length but
// change its contents, and WAL recoveries that roll the store back to its
// durable prefix. After every step, warmStart must select exactly what
// the rescanning reference selects, every current cache entry must equal
// a fresh fingerprint bit for bit, and Query, Workloads and Effectiveness
// must equal reference scans of a mirror of the store's contents.
func TestWarmStartMatchesRescan(t *testing.T) {
	dir := t.TempDir()
	openBackend := func() storage.Backend {
		b, err := storage.Open(storage.Config{DataDir: dir, NoSync: true, CompactSegments: -1})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	backend := openBackend()
	defer func() { backend.Close() }()
	st := &history.Store{}
	if _, err := backend.Recover(st); err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(WithSeed(1), WithSparkSpace(smallSpace(t)), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	persist := func(on bool) {
		if !on {
			st.SetPersist(nil)
			return
		}
		b := backend
		st.SetPersist(func(r history.Record) {
			if err := b.AppendRecord(r); err != nil {
				t.Error(err)
			}
		})
	}
	persist(true)

	tenants := []string{"t0", "t1", "t2"}
	rng := rand.New(rand.NewSource(36))
	// mirror is the store's expected contents in Seq order; durable is
	// the subset that reached the WAL.
	var mirror, durable []history.Record
	persisting := true
	var accepted, refused, cacheChecks, resets, recoveries int
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(40); {
		case op < 36:
			r := st.Append(randomRecord(rng, svc, tenants[rng.Intn(len(tenants))], rng.Intn(4)))
			mirror = append(mirror, r)
			if persisting {
				durable = append(durable, r)
			}
		case op < 37:
			persisting = !persisting
			persist(persisting)
		case op < 39:
			// Same keys and lengths, different contents: only the
			// generation tells the cache the history changed.
			next := make([]history.Record, len(mirror))
			for i, r := range mirror {
				r.RuntimeS *= 0.5 + rng.Float64()
				r.Metrics.ShuffleReadBytes = r.Metrics.ShuffleReadBytes / 2 * int64(1+rng.Intn(3))
				next[i] = r
			}
			st.Reset(next)
			mirror = next
			resets++
		default:
			// Restart on the WAL: the store rolls back to what was made
			// durable, then further appends regrow the keys under a new
			// generation.
			if err := backend.Close(); err != nil {
				t.Fatal(err)
			}
			backend = openBackend()
			if _, err := backend.Recover(st); err != nil {
				t.Fatal(err)
			}
			mirror = append([]history.Record(nil), durable...)
			persisting = true
			persist(true)
			recoveries++
		}

		for _, tenant := range append(tenants, "ghost") {
			for _, wl := range workload.All()[:4] {
				reg := Registration{Tenant: tenant, Workload: wl}
				wantSel, wantTrials := referenceWarmStart(svc, reg)
				gotSel, gotTrials := svc.warmStart(reg)
				if gotSel.Source != wantSel.Source || gotSel.Accepted != wantSel.Accepted ||
					math.Float64bits(gotSel.Similarity) != math.Float64bits(wantSel.Similarity) {
					t.Fatalf("step %d %s/%s: selection %+v, reference %+v", step, tenant, wl.Name(), gotSel, wantSel)
				}
				if !reflect.DeepEqual(gotTrials, wantTrials) {
					t.Fatalf("step %d %s/%s: warm-start trials differ from the reference", step, tenant, wl.Name())
				}
				if wantSel.Accepted {
					accepted++
				} else if wantSel.Source != (history.WorkloadKey{}) {
					refused++
				}
				gotEff, gotErr := svc.Effectiveness(tenant, wl.Name())
				wantEff, ok := referenceEffectiveness(svc, tenant, wl.Name())
				if (gotErr == nil) != ok || !reflect.DeepEqual(gotEff, wantEff) {
					t.Fatalf("step %d %s/%s: Effectiveness %+v (%v), reference %+v", step, tenant, wl.Name(), gotEff, gotErr, wantEff)
				}
			}
		}

		for _, key := range st.Workloads() {
			st.View(key.Tenant, key.Workload, func(recs []history.Record, v history.Version) {
				svc.fpMu.Lock()
				c, ok := svc.fps[key]
				svc.fpMu.Unlock()
				if !ok || c.v != v {
					return
				}
				fp, err := transfer.FingerprintOf(transfer.WellConfigured(recs))
				if c.ok != (err == nil) || fingerprintBits(c.fp) != fingerprintBits(fp) {
					t.Fatalf("step %d: cached fingerprint of %s at %+v is %+v, recomputed %+v", step, key, v, c.fp, fp)
				}
				cacheChecks++
			})
		}

		sort.Slice(mirror, func(i, j int) bool { return mirror[i].Seq < mirror[j].Seq })
		if got, want := st.Workloads(), referenceWorkloads(mirror); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Workloads = %v, want %v", step, got, want)
		}
		for _, f := range []history.Filter{{}, {Tenant: "t1"}, {Workload: "sort"}, {Tenant: "t2", Workload: "pagerank"}, {Tenant: "ghost"}} {
			for _, ok := range []bool{false, true} {
				for _, maxN := range []int{0, 1, 3, 50} {
					f.SucceededOnly, f.MaxN = ok, maxN
					got, want := st.Query(f), referenceQuery(mirror, f)
					if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("step %d: Query(%+v) = %d records, want %d", step, f, len(got), len(want))
					}
				}
			}
		}
	}
	t.Logf("%d accepted, %d refused, %d cache checks, %d resets, %d recoveries", accepted, refused, cacheChecks, resets, recoveries)
	if accepted == 0 || refused == 0 || cacheChecks == 0 || resets == 0 || recoveries == 0 {
		t.Fatalf("property run too narrow: %d accepted, %d refused, %d cache checks, %d resets, %d recoveries",
			accepted, refused, cacheChecks, resets, recoveries)
	}
}

// BenchmarkWarmStartSelect times one warm-start source selection over a
// fleet-like history: three tenants running all six workloads, records
// spread evenly over the 18 keys. The store is built outside the timer
// and never grows inside it, so every op does the same work: a fresh
// fingerprint of the target, cache hits for the other 17 keys, and the
// source's trials. The -moved arm also invalidates one other key's cache
// entry per op, the cost of a key whose history moved since the last
// selection; the -rescan arm runs the rescanning reference.
func BenchmarkWarmStartSelect(b *testing.B) {
	svc, err := NewService(WithSeed(1), WithSparkSpace(smallSpace(b)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tenants := []string{"t0", "t1", "t2"}
	nwl := len(workload.All())
	reg := Registration{Tenant: "t0", Workload: workload.All()[0]}
	moved := history.WorkloadKey{Tenant: "t1", Workload: workload.All()[0].Name()}
	for _, n := range []int{4000, 12000} {
		for svc.store.Len() < n {
			i := svc.store.Len()
			svc.store.Append(randomRecord(rng, svc, tenants[i%len(tenants)], (i/len(tenants))%nwl))
		}
		arms := []struct {
			name string
			op   func()
		}{
			{"", func() { svc.warmStart(reg) }},
			{"-moved", func() {
				svc.fpMu.Lock()
				delete(svc.fps, moved)
				svc.fpMu.Unlock()
				svc.warmStart(reg)
			}},
			{"-rescan", func() { referenceWarmStart(svc, reg) }},
		}
		for _, arm := range arms {
			if arm.name != "" && n != 12000 {
				continue
			}
			b.Run(fmt.Sprintf("records=%d%s", n, arm.name), func(b *testing.B) {
				if sel, trials := svc.warmStart(reg); !sel.Accepted || len(trials) == 0 {
					b.Fatalf("benchmark history selects no source: %+v", sel)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					arm.op()
				}
			})
		}
	}
}
