package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// registry is the BENCH.json document. Samples stays empty there: it
// holds a bare run, the shape check writes its fresh results in.
type registry struct {
	Rows    []*row   `json:"rows,omitempty"`
	Samples []Sample `json:"samples,omitempty"`
}

// row is one `go test -bench` regex on one package with the samples it
// last recorded. Count and Benchtime are set only where a row departs
// from -count 5 at go test's default benchtime. Every benchmark a gated
// row produces is gated at its Tolerance (fractional ns/op regression).
type row struct {
	Name      string   `json:"name"`
	About     string   `json:"about"`
	Pkg       string   `json:"pkg"`
	Bench     string   `json:"bench"`
	Count     int      `json:"count,omitempty"`
	Benchtime string   `json:"benchtime,omitempty"`
	Gated     bool     `json:"gated"`
	Tolerance float64  `json:"tolerance,omitempty"`
	CPU       string   `json:"cpu,omitempty"`
	Samples   []Sample `json:"samples"`
}

// Sample is one benchmark result line. Metrics holds every reported
// unit but ns/op: B/op and allocs/op from -benchmem, and any custom
// b.ReportMetric values.
type Sample struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

func loadRegistry(path string) (*registry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reg registry
	if err := json.Unmarshal(raw, &reg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &reg, nil
}

func (reg *registry) save(path string) error {
	raw, err := json.MarshalIndent(reg, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func (reg *registry) row(name string) *row {
	for _, r := range reg.Rows {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// runFunc runs one row's benchmarks and returns the parsed samples and
// the CPU go test reported.
type runFunc func(r *row, count int, benchtime string) ([]Sample, string, error)

// goTest runs a row through `go test`, echoing its output to stderr so
// progress stays visible.
func goTest(r *row, count int, benchtime string) (samples []Sample, cpu string, err error) {
	args := []string{"test", "-run", "^$", "-bench", r.Bench, "-benchmem", "-count", strconv.Itoa(count)}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	var out bytes.Buffer
	cmd := exec.Command("go", append(args, r.Pkg)...)
	cmd.Stdout, cmd.Stderr = io.MultiWriter(&out, os.Stderr), os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, "", fmt.Errorf("row %s: go test: %w", r.Name, err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if c, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(c)
		}
		if s, ok := parseBenchLine(line); ok {
			samples = append(samples, s)
		}
	}
	return samples, cpu, nil
}

// parseBenchLine parses a result line such as
// "BenchmarkX-8  500  123456 ns/op  2048 B/op  17 allocs/op".
func parseBenchLine(line string) (Sample, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return Sample{}, false
	}
	s := Sample{Name: f[0], Procs: 1, Metrics: map[string]float64{}}
	if i := strings.LastIndex(s.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(s.Name[i+1:]); err == nil {
			s.Name, s.Procs = s.Name[:i], p
		}
	}
	var err error
	if s.Iterations, err = strconv.ParseInt(f[1], 10, 64); err != nil {
		return Sample{}, false
	}
	for i := 2; i < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Sample{}, false
		}
		s.Metrics[f[i+1]] = val
	}
	s.NsPerOp = s.Metrics["ns/op"]
	delete(s.Metrics, "ns/op")
	return s, true
}

// record runs the named rows (every row when names is empty), rewrites
// their samples and saves the registry after each row, so an interrupted
// recording keeps what it finished.
func record(reg *registry, path string, names []string, run runFunc) error {
	for _, name := range names {
		if reg.row(name) == nil {
			return fmt.Errorf("no row %q in %s", name, path)
		}
	}
	for _, r := range reg.Rows {
		if len(names) > 0 && !slices.Contains(names, r.Name) {
			continue
		}
		samples, cpu, err := run(r, cmp.Or(r.Count, 5), r.Benchtime)
		if err != nil {
			return err
		}
		if len(samples) == 0 {
			return fmt.Errorf("row %s: -bench %q matched nothing in %s", r.Name, r.Bench, r.Pkg)
		}
		r.Samples, r.CPU = samples, cpu
		if err := reg.save(path); err != nil {
			return err
		}
	}
	return nil
}

// check smoke-runs every ungated row once at -benchtime 1x, and reruns
// every gated row at -count 3 and guards its medians against the
// registry at path at the row's tolerance. It returns how many gated
// benchmarks regressed or went missing.
func check(reg *registry, path string, run runFunc, out io.Writer) (int, error) {
	dir, err := os.MkdirTemp("", "benchguard")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	freshPath := filepath.Join(dir, "fresh.json")
	failures := 0
	for _, r := range reg.Rows {
		recorded := medianByName(r.Samples)
		if !r.Gated {
			if slices.ContainsFunc(r.Samples, func(s Sample) bool { return recorded[s.Name] > 1e9 }) {
				fmt.Fprintf(out, "skip  row %s: recorded median over 1s/op\n", r.Name)
			} else if _, _, err := run(r, 1, "1x"); err != nil {
				return failures, err
			}
			continue
		}
		samples, _, err := run(r, 3, "")
		if err != nil {
			return failures, err
		}
		if err := (&registry{Samples: samples}).save(freshPath); err != nil {
			return failures, err
		}
		fresh := medianByName(samples)
		var names []string
		for name := range fresh {
			names = append(names, regexp.QuoteMeta(name))
		}
		for name := range recorded {
			if _, ok := fresh[name]; !ok {
				fmt.Fprintf(out, "MISSING %-50s recorded but not run\n", name)
				failures++
			}
		}
		fmt.Fprintf(out, "row %s (gated at +%.0f%%)\n", r.Name, r.Tolerance*100)
		n, err := guard(path, freshPath, "^("+strings.Join(names, "|")+")$", r.Tolerance, out)
		if err != nil {
			return failures, fmt.Errorf("row %s: %w", r.Name, err)
		}
		failures += n
	}
	return failures, nil
}
