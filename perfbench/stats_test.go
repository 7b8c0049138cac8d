package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"seamlesstune/internal/history"
	"seamlesstune/internal/storage"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting matters
	}
	return xs
}

func TestPercentileTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
		ok     bool
	}{
		{100, 0.9, 90, 10, true},
		{99, 0.9, 90, 9, false},
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{1200, 0.99, 1188, 12, true},
		{1, 0.5, 1, 0, false},
	} {
		s := summarize(seq(tc.n), tc.p)
		if s.N != tc.n || s.Tail != tc.value || s.Beyond != tc.beyond || s.tailOK() != tc.ok {
			t.Errorf("n=%d p=%v: got %+v ok=%v, want tail %v beyond %d ok=%v",
				tc.n, tc.p, s, s.tailOK(), tc.value, tc.beyond, tc.ok)
		}
	}
	if m := median(seq(100)); m != 50 {
		t.Errorf("median of 1..100 = %v, want 50 (nearest rank)", m)
	}
	if v, b := percentile(nil, 0.5); v != 0 || b != 0 {
		t.Errorf("percentile of no samples = %v, %d", v, b)
	}
}

func TestClassMeanWeighsClassesEqually(t *testing.T) {
	by := map[sized][]float64{
		{"pagerank", 8}:  {10, 20, 30}, // mean 20 over three jobs
		{"bayes", 44}:    {60},         // one job
		{"wordcount", 8}: {1, 3},       // mean 2
	}
	if got, want := classMean(by), (20.0+60+2)/3; got != want {
		t.Errorf("classMean = %v, want %v (not the pooled mean %v)", got, want, 124.0/6)
	}
	if got := classMean(nil); got != 0 {
		t.Errorf("classMean of no classes = %v", got)
	}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{"jobs.run", 0, 100},
		{"core.tune_disc", 10, 40},
		{"tuner.trial", 20, 30},
		{"storage.append_record", 22, 27},
		{"core.baseline", 50, 90},
		{"spark.run", 60, 70},
		{"spark.run", 75, 80},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"jobs.run":              100 - 30 - 40,
		"core.tune_disc":        30 - 10,
		"tuner.trial":           10 - 5,
		"storage.append_record": 5,
		"core.baseline":         40 - 10 - 5,
		"spark.run":             15,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	total := int64(0)
	for _, v := range got {
		total += v
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
}

func TestSelfTimesSharedStart(t *testing.T) {
	// A child starting with its parent nests under it (longer span first).
	got := selfTimes([]span{{"gp.fit", 0, 4}, {"tuner.trial", 0, 10}})
	want := map[string]int64{"tuner.trial": 6, "gp.fit": 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestStorageAppendsAttributedByTenant(t *testing.T) {
	mem, err := storage.Open(storage.Config{Backend: "memory"})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	b := &timedBackend{Backend: mem, rec: rec}
	a, c := &jobTrace{tenant: "a"}, &jobTrace{tenant: "c"}
	rec.begin(a)
	rec.begin(c)
	for _, tenant := range []string{"a", "a", "c", "idle"} {
		if err := b.AppendRecord(history.Record{Tenant: tenant}); err != nil {
			t.Fatal(err)
		}
	}
	rec.end(c, 0)
	if err := b.AppendRecord(history.Record{Tenant: "c"}); err != nil {
		t.Fatal(err)
	}
	if len(a.recordNS) != 2 || len(c.recordNS) != 1 {
		t.Fatalf("appends attributed a=%d c=%d, want 2 and 1", len(a.recordNS), len(c.recordNS))
	}
	for _, sp := range a.spans {
		if sp.Key != "storage.append_record" || sp.End < sp.Start {
			t.Errorf("tenant a span %+v", sp)
		}
	}
}

func TestParseProcCPU(t *testing.T) {
	// The command name holds a space and a parenthesis; utime=250 and
	// stime=50 ticks are fields 14 and 15.
	stat := "4242 (tune serve) x) S 1 4242 4242 0 -1 4194560 900 0 3 0 250 50 0 0 20 0 9 0 1234 1000000 5000\n"
	got, err := parseProcCPU(stat)
	if err != nil || got != 3.0 {
		t.Fatalf("parseProcCPU = %v, %v; want 3.0", got, err)
	}
	if _, err := parseProcCPU("4242 (short) S 1 2"); err == nil {
		t.Error("truncated stat parsed without error")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\ttuneserve\nVmPeak:\t 1200000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  100000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 200 {
		t.Fatalf("parseVmHWM = %v, %v; want 200", got, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM parsed without error")
	}
	if _, err := parseVmHWM("VmHWM:\t12 MB\n"); err == nil {
		t.Error("VmHWM in MB parsed without error")
	}
}

func TestProcUsageOfSelf(t *testing.T) {
	cpu, rss, err := procUsage(os.Getpid())
	if err != nil || cpu < 0 || rss <= 0 {
		t.Fatalf("procUsage(self) = %v, %v, %v", cpu, rss, err)
	}
}

func TestSpecStreamIsSeeded(t *testing.T) {
	draw := func(seed int64) []jobSpec {
		s := newSpecStream(seed, table1Mix(true), 8, "t")
		out := make([]jobSpec, 40)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Error("same seed gave different job streams")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Error("different seeds gave the same job stream")
	}
	// Every round covers the whole mix once.
	seen := map[sized]int{}
	for _, j := range draw(3)[:18] {
		seen[sized{j.Workload, j.InputGB}]++
	}
	if len(seen) != 18 {
		t.Errorf("first round covered %d of 18 (workload, size) pairs", len(seen))
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's metric lists equal
// to the ones the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from endToEnd")
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayer")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
}

func TestCheckResult(t *testing.T) {
	good := tuneResult{
		Cluster:         "4x nimbus/h1.4xlarge",
		Config:          sparkSpace.Default(),
		DefaultRuntimeS: 200,
		TunedRuntimeS:   150,
		ImprovementPct:  25,
	}
	if err := checkResult(good); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	bad := good
	bad.ImprovementPct = 20
	if checkResult(bad) == nil {
		t.Error("inconsistent improvementPct accepted")
	}
	bad = good
	bad.TunedRuntimeS = 0
	if checkResult(bad) == nil {
		t.Error("zero runtime accepted")
	}
	bad = good
	bad.Config = sparkSpace.Default()
	for k := range bad.Config {
		bad.Config[k] = -1e9
		break
	}
	if checkResult(bad) == nil {
		t.Error("out-of-bounds config accepted")
	}
}

func TestIsTuningVerdict(t *testing.T) {
	for msg, want := range map[string]bool{
		"core: no DISC configuration succeeded for t3/wordcount": true,
		"core: no cloud configuration succeeded for t0/sort":     true,
		"context canceled":                     false,
		"wal: append: no space left on device": false,
	} {
		if got := isTuningVerdict(msg); got != want {
			t.Errorf("isTuningVerdict(%q) = %v, want %v", msg, got, want)
		}
	}
}

func TestUnconvergedJobsAreNotFailures(t *testing.T) {
	js := jobStats{Refused: 1, Failed: 2, CheckFailed: 3, Unconverged: 4, Completed: 80, Drained: 10}
	if got := js.failures(); got != 6 {
		t.Errorf("failures() = %d, want 6", got)
	}
	// 99 jobs ended (the refused one never started), 4 of them unconverged.
	if got, want := js.convergedPct(), 100*95.0/99; got != want {
		t.Errorf("convergedPct() = %v, want %v", got, want)
	}
}
