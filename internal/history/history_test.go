package history

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"seamlesstune/internal/confspace"
	"seamlesstune/internal/spark"
)

func rec(tenant, wl string, runtime float64, failed bool) Record {
	return Record{
		Tenant: tenant, Workload: wl, RuntimeS: runtime, Failed: failed,
		Config: confspace.Config{"a": 1},
	}
}

func TestAppendAssignsSeq(t *testing.T) {
	var s Store
	a := s.Append(rec("t1", "wc", 10, false))
	b := s.Append(rec("t1", "wc", 20, false))
	if a.Seq != 0 || b.Seq != 1 {
		t.Errorf("seqs = %d, %d", a.Seq, b.Seq)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestQueryFilters(t *testing.T) {
	var s Store
	s.Append(rec("t1", "wc", 10, false))
	s.Append(rec("t1", "pr", 20, false))
	s.Append(rec("t2", "wc", 30, true))
	s.Append(rec("t2", "wc", 40, false))

	if got := len(s.Query(Filter{})); got != 4 {
		t.Errorf("all = %d", got)
	}
	if got := len(s.Query(Filter{Tenant: "t1"})); got != 2 {
		t.Errorf("t1 = %d", got)
	}
	if got := len(s.Query(Filter{Workload: "wc"})); got != 3 {
		t.Errorf("wc = %d", got)
	}
	if got := len(s.Query(Filter{Workload: "wc", SucceededOnly: true})); got != 2 {
		t.Errorf("wc ok = %d", got)
	}
	if got := s.Query(Filter{MaxN: 2}); len(got) != 2 || got[0].RuntimeS != 30 {
		t.Errorf("MaxN window wrong: %+v", got)
	}
}

func TestQueryCopiesConfigs(t *testing.T) {
	var s Store
	s.Append(rec("t1", "wc", 10, false))
	out := s.Query(Filter{})
	out[0].Config["a"] = 99
	again := s.Query(Filter{})
	if again[0].Config["a"] != 1 {
		t.Error("Query aliases stored config")
	}
}

func TestBest(t *testing.T) {
	var s Store
	if _, ok := s.Best(Filter{}); ok {
		t.Error("Best on empty store")
	}
	s.Append(rec("t1", "wc", 30, false))
	s.Append(rec("t1", "wc", 10, true)) // failed: excluded
	s.Append(rec("t1", "wc", 20, false))
	best, ok := s.Best(Filter{Workload: "wc"})
	if !ok || best.RuntimeS != 20 {
		t.Errorf("Best = %+v, %v", best, ok)
	}
}

func TestWorkloads(t *testing.T) {
	var s Store
	s.Append(rec("t1", "wc", 1, false))
	s.Append(rec("t1", "wc", 2, false))
	s.Append(rec("t2", "pr", 3, false))
	keys := s.Workloads()
	if len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}
	if keys[0].String() != "t1/wc" {
		t.Errorf("key string = %q", keys[0].String())
	}
}

func TestRoundTripJSON(t *testing.T) {
	var s Store
	s.Append(rec("t1", "wc", 10, false))
	s.Append(rec("t2", "pr", 20, true))
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s.Query(Filter{})); err != nil {
		t.Fatal(err)
	}
	var s2 Store
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("restored Len = %d", s2.Len())
	}
	// Sequence continues after the restored max.
	r := s2.Append(rec("t3", "x", 1, false))
	if r.Seq != 2 {
		t.Errorf("continued seq = %d, want 2", r.Seq)
	}
}

func TestReadFromBad(t *testing.T) {
	var s Store
	for _, doc := range []string{"{nope", `[{"seq":1},{"seq":1}]`} {
		if err := s.Load(strings.NewReader(doc)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("Load(%s) err = %v", doc, err)
		}
	}
}

func TestConcurrentAppendQuery(t *testing.T) {
	var s Store
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Append(rec("t", "w", float64(j), false))
				s.Query(Filter{Workload: "w", MaxN: 5})
			}
		}()
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("Len = %d, want 800", s.Len())
	}
	// All seqs distinct.
	seen := make(map[int]bool)
	for _, r := range s.Query(Filter{}) {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestConcurrentDistinctTenants(t *testing.T) {
	// Distinct tenants land on distinct shards (almost always) and must
	// proceed without corrupting each other's histories or the global
	// sequence order.
	var s Store
	var wg sync.WaitGroup
	const tenants, perTenant = 10, 50
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := string(rune('a' + i))
			for j := 0; j < perTenant; j++ {
				s.Append(rec(tenant, "wc", float64(j), false))
				s.Query(Filter{Tenant: tenant, Workload: "wc"})
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != tenants*perTenant {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 0; i < tenants; i++ {
		tenant := string(rune('a' + i))
		recs := s.Query(Filter{Tenant: tenant, Workload: "wc"})
		if len(recs) != perTenant {
			t.Fatalf("tenant %s has %d records", tenant, len(recs))
		}
		// Per-tenant insertion order survives sharding.
		for j, r := range recs {
			if r.RuntimeS != float64(j) {
				t.Fatalf("tenant %s record %d out of order: %+v", tenant, j, r)
			}
		}
	}
	// The global view is ordered by sequence number.
	all := s.Query(Filter{})
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("global order broken at %d: %d after %d", i, all[i].Seq, all[i-1].Seq)
		}
	}
}

// View hands out one key's records in Seq order with a Version that
// grows with appends to that key only and changes on every Reset, even
// one that restores the same lengths.
func TestViewVersion(t *testing.T) {
	var s Store
	view := func(tenant, wl string) ([]float64, Version) {
		var rts []float64
		var ver Version
		s.View(tenant, wl, func(recs []Record, v Version) {
			for _, r := range recs {
				rts = append(rts, r.RuntimeS)
			}
			ver = v
		})
		return rts, ver
	}
	if rts, v := view("t", "w"); rts != nil || v != (Version{}) {
		t.Fatalf("empty store view = %v, %+v", rts, v)
	}
	s.Append(rec("t", "w", 1, false))
	s.Append(rec("u", "w", 2, false))
	s.Append(rec("t", "w", 3, true))
	rts, v1 := view("t", "w")
	if !reflect.DeepEqual(rts, []float64{1, 3}) || v1 != (Version{Gen: 0, Len: 2}) {
		t.Fatalf("view = %v, %+v", rts, v1)
	}
	s.Append(rec("u", "w", 4, false))
	if _, v := view("t", "w"); v != v1 {
		t.Errorf("append to another key moved the version: %+v -> %+v", v1, v)
	}
	s.Reset(s.Query(Filter{}))
	if rts, v := view("t", "w"); !reflect.DeepEqual(rts, []float64{1, 3}) || v == v1 || v.Len != 2 {
		t.Errorf("after Reset: view = %v, %+v (was %+v)", rts, v, v1)
	}
}

// A broad Query with MaxN takes the last MaxN matching records across
// keys, skipping non-matching ones inside each key's tail.
func TestQueryMaxNAcrossKeys(t *testing.T) {
	var s Store
	s.Append(rec("a", "w", 1, false))
	s.Append(rec("b", "w", 2, false))
	s.Append(rec("a", "w", 3, true))
	s.Append(rec("a", "w", 4, true))
	s.Append(rec("b", "v", 5, false))
	s.Append(rec("c", "w", 6, true))
	var got []float64
	for _, r := range s.Query(Filter{Workload: "w", SucceededOnly: true, MaxN: 2}) {
		got = append(got, r.RuntimeS)
	}
	if !reflect.DeepEqual(got, []float64{1, 2}) {
		t.Errorf("succeeded w, MaxN 2 = %v, want [1 2]", got)
	}
	got = nil
	for _, r := range s.Query(Filter{MaxN: 3}) {
		got = append(got, r.RuntimeS)
	}
	if !reflect.DeepEqual(got, []float64{4, 5, 6}) {
		t.Errorf("all, MaxN 3 = %v, want [4 5 6]", got)
	}
}

// View readers run beside appends to the same key and Resets without a
// data race (run under -race), and always see a Seq-ordered slice whose
// length matches their Version.
func TestConcurrentViewAppendReset(t *testing.T) {
	var s Store
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				switch {
				case i == 0 && j%50 == 49:
					s.Reset(s.Query(Filter{}))
				case i%2 == 0:
					s.Append(rec("t", "w", float64(j), false))
				default:
					s.View("t", "w", func(recs []Record, v Version) {
						if len(recs) != v.Len {
							t.Errorf("len %d, version %+v", len(recs), v)
						}
						for k := 1; k < len(recs); k++ {
							if recs[k].Seq <= recs[k-1].Seq {
								t.Errorf("view out of Seq order at %d", k)
							}
						}
					})
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestWorkloadsFirstAppearanceOrder(t *testing.T) {
	var s Store
	// Keys chosen to land on several different shards.
	for i := 0; i < 8; i++ {
		s.Append(rec(string(rune('z'-i)), "w", 1, false))
	}
	keys := s.Workloads()
	if len(keys) != 8 {
		t.Fatalf("keys = %v", keys)
	}
	for i, k := range keys {
		if k.Tenant != string(rune('z'-i)) {
			t.Fatalf("key %d = %v, want first-appearance order", i, keys)
		}
	}
}

func TestMetricsFromResult(t *testing.T) {
	res := spark.Result{
		TotalShuffleRead:  1,
		TotalShuffleWrite: 2,
		TotalSpillBytes:   3,
		TotalGCSeconds:    4,
		Executors:         5,
		Stages:            []spark.StageMetrics{{}, {}},
	}
	m := MetricsFromResult(res)
	if m.ShuffleReadBytes != 1 || m.ShuffleWriteBytes != 2 || m.SpillBytes != 3 ||
		m.GCSeconds != 4 || m.Executors != 5 || m.Stages != 2 {
		t.Errorf("metrics = %+v", m)
	}
}

// Property: Save/Load round-trips arbitrary records exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(tenants []uint8, runtimes []float64) bool {
		var s Store
		n := len(tenants)
		if len(runtimes) < n {
			n = len(runtimes)
		}
		for i := 0; i < n; i++ {
			rt := runtimes[i]
			if rt != rt || rt > 1e300 || rt < -1e300 { // NaN/Inf don't survive JSON
				rt = 1
			}
			s.Append(Record{
				Tenant:   string(rune('a' + tenants[i]%26)),
				Workload: "w",
				RuntimeS: rt,
				Config:   confspace.Config{"k": float64(i)},
			})
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(s.Query(Filter{})); err != nil {
			return false
		}
		var s2 Store
		if err := s2.Load(&buf); err != nil {
			return false
		}
		a, b := s.Query(Filter{}), s2.Query(Filter{})
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Tenant != b[i].Tenant || a[i].RuntimeS != b[i].RuntimeS ||
				a[i].Seq != b[i].Seq || a[i].Config["k"] != b[i].Config["k"] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
