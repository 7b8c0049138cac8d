package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// committed is the repository's registry, relative to this package.
const committed = "../../BENCH.json"

func TestRegistryRowsOwnEachBenchmarkOnce(t *testing.T) {
	reg, err := loadRegistry(committed)
	if err != nil {
		t.Fatal(err)
	}
	rowNames := map[string]bool{}
	owner := map[string]string{}
	for _, r := range reg.Rows {
		if rowNames[r.Name] {
			t.Errorf("row %s appears twice", r.Name)
		}
		rowNames[r.Name] = true
		if r.Pkg == "" || r.Bench == "" || len(r.Samples) == 0 {
			t.Errorf("row %s: needs a package, a regex and recorded samples", r.Name)
		}
		if r.Gated != (r.Tolerance > 0) {
			t.Errorf("row %s: gated=%v with tolerance %v", r.Name, r.Gated, r.Tolerance)
		}
		for _, s := range r.Samples {
			if o, ok := owner[s.Name]; ok && o != r.Name {
				t.Errorf("%s recorded by rows %s and %s", s.Name, o, r.Name)
			}
			owner[s.Name] = r.Name
		}
	}
}

// replay is a runFunc that returns each row's samples from reg, as if
// the code performed exactly as recorded. It fails the test if check
// runs a row it should skip or at the wrong settings.
func replay(t *testing.T, reg *registry) runFunc {
	return func(r *row, count int, benchtime string) ([]Sample, string, error) {
		rec := reg.row(r.Name)
		for name, ns := range medianByName(rec.Samples) {
			if ns > 1e9 && !r.Gated {
				t.Errorf("check ran row %s, whose %s has a recorded median over 1s/op", r.Name, name)
			}
		}
		if r.Gated && (count != 3 || benchtime != "") || !r.Gated && (count != 1 || benchtime != "1x") {
			t.Errorf("row %s (gated=%v) run at -count %d -benchtime %q", r.Name, r.Gated, count, benchtime)
		}
		return rec.Samples, "", nil
	}
}

// TestCheckFailsOnSlowdown runs check against the committed registry
// and against a copy whose recorded samples for one gated row are
// halved, which makes the unchanged code look 2x slower.
func TestCheckFailsOnSlowdown(t *testing.T) {
	reg, err := loadRegistry(committed)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if n, err := check(reg, committed, replay(t, reg), &out); err != nil || n != 0 {
		t.Fatalf("check on the recorded numbers: %d failures, err %v\n%s", n, err, out.String())
	}

	halved, err := loadRegistry(committed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range halved.row("bayesopt-step").Samples {
		halved.row("bayesopt-step").Samples[i].NsPerOp /= 2
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := halved.save(path); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	n, err := check(halved, path, replay(t, reg), &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !strings.Contains(out.String(), "REGRESS BenchmarkBayesOptStep/n=60") {
		t.Fatalf("2x slowdown: %d failures, want 1 naming BenchmarkBayesOptStep/n=60\n%s", n, out.String())
	}
}

func TestCheckReportsMissingBenchmark(t *testing.T) {
	reg := &registry{Rows: []*row{{Name: "a", Gated: true, Tolerance: 0.25, Samples: []Sample{
		{Name: "BenchmarkA", NsPerOp: 10}, {Name: "BenchmarkGone", NsPerOp: 10},
	}}}}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := reg.save(path); err != nil {
		t.Fatal(err)
	}
	run := func(*row, int, string) ([]Sample, string, error) {
		return []Sample{{Name: "BenchmarkA", NsPerOp: 10}}, "", nil
	}
	var out bytes.Buffer
	if n, err := check(reg, path, run, &out); err != nil || n != 1 || !strings.Contains(out.String(), "MISSING BenchmarkGone") {
		t.Fatalf("check = %d, %v; want one MISSING failure\n%s", n, err, out.String())
	}
}

func TestRecordRewritesNamedRows(t *testing.T) {
	reg := &registry{Rows: []*row{
		{Name: "a", Samples: []Sample{{Name: "BenchmarkA", NsPerOp: 1}}},
		{Name: "b", Count: 2, Benchtime: "1x"},
	}}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	run := func(r *row, count int, benchtime string) ([]Sample, string, error) {
		if r.Name != "b" || count != 2 || benchtime != "1x" {
			t.Errorf("ran row %s at -count %d -benchtime %q, want only b at its own settings", r.Name, count, benchtime)
		}
		return []Sample{{Name: "BenchmarkB", NsPerOp: 2}}, "cpu0", nil
	}
	if err := record(reg, path, []string{"b"}, run); err != nil {
		t.Fatal(err)
	}
	saved, err := loadRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	if b := saved.row("b"); b.CPU != "cpu0" || len(b.Samples) != 1 || b.Samples[0].Name != "BenchmarkB" {
		t.Fatalf("row b after record = %+v", b)
	}
	if a := saved.row("a"); len(a.Samples) != 1 || a.Samples[0].Name != "BenchmarkA" {
		t.Fatalf("row a was rewritten: %+v", a)
	}
	if err := record(reg, path, []string{"nope"}, run); err == nil {
		t.Fatal("unknown row must error")
	}
}

func TestParseBenchLine(t *testing.T) {
	s, ok := parseBenchLine("BenchmarkObsOverhead/counter-nop-2   \t1000000000\t 0.76 ns/op\t 0 B/op\t 0 allocs/op\t 99.5 hit_rate_pct")
	if !ok || s.Name != "BenchmarkObsOverhead/counter-nop" || s.Procs != 2 || s.Iterations != 1000000000 ||
		s.NsPerOp != 0.76 || s.Metrics["allocs/op"] != 0 || s.Metrics["hit_rate_pct"] != 99.5 {
		t.Fatalf("parsed %+v, %v", s, ok)
	}
	for _, line := range []string{"PASS", "ok  \tseamlesstune\t1.2s", "BenchmarkX", "cpu: Intel"} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("%q parsed as a sample", line)
		}
	}
}
