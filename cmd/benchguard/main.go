// Command benchguard keeps the micro-benchmark registry, BENCH.json:
// each row names one `go test -bench` regex on one package and holds the
// samples it last recorded.
//
//	benchguard [-registry BENCH.json] record [row...]
//	benchguard [-registry BENCH.json] check
//
// record reruns rows (all when none is named) and rewrites their
// samples. check, the CI tripwire, compares fresh medians of the gated
// rows against the recorded ones and runs every other row once.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

func main() {
	regPath := flag.String("registry", "BENCH.json", "benchmark registry file")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: benchguard [-registry file] record [row...] | check")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	reg, err := loadRegistry(*regPath)
	failures := 0
	switch {
	case err != nil:
	case args[0] == "record":
		err = record(reg, *regPath, args[1:], goTest)
	case args[0] == "check":
		failures, err = check(reg, *regPath, goTest, os.Stdout)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	if failures > 0 {
		fmt.Printf("FAIL: %d gated benchmark(s) regressed or went missing\n", failures)
		os.Exit(1)
	}
	if args[0] == "check" {
		fmt.Println("ok: no gated benchmark regressed")
	}
}

// medians loads a registry (or a bare run) and reduces the repeated
// samples of each benchmark to their median ns/op.
func medians(path string) (map[string]float64, error) {
	reg, err := loadRegistry(path)
	if err != nil {
		return nil, err
	}
	all := reg.Samples
	for _, r := range reg.Rows {
		all = append(all, r.Samples...)
	}
	return medianByName(all), nil
}

func medianByName(samples []Sample) map[string]float64 {
	byName := make(map[string][]float64)
	for _, s := range samples {
		byName[s.Name] = append(byName[s.Name], s.NsPerOp)
	}
	out := make(map[string]float64, len(byName))
	for name, vals := range byName {
		sort.Float64s(vals)
		n := len(vals)
		if n%2 == 1 {
			out[name] = vals[n/2]
		} else {
			out[name] = (vals[n/2-1] + vals[n/2]) / 2
		}
	}
	return out
}

// guard compares the two files and reports each guarded benchmark's
// delta, returning how many regressed beyond maxRegress. Benchmarks in
// the fresh run without a baseline are reported and skipped (new
// benchmarks are not regressions).
func guard(oldPath, newPath, guardPat string, maxRegress float64, out io.Writer) (int, error) {
	re, err := regexp.Compile(guardPat)
	if err != nil {
		return 0, fmt.Errorf("bad guard pattern: %w", err)
	}
	oldMed, err := medians(oldPath)
	if err != nil {
		return 0, err
	}
	newMed, err := medians(newPath)
	if err != nil {
		return 0, err
	}
	names := make([]string, 0, len(newMed))
	for name := range newMed {
		if re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return 0, fmt.Errorf("no benchmark in %s matches guard %q", newPath, guardPat)
	}
	regressions := 0
	for _, name := range names {
		base, ok := oldMed[name]
		if !ok {
			fmt.Fprintf(out, "skip  %-50s no baseline (new benchmark)\n", name)
			continue
		}
		delta := newMed[name]/base - 1
		verdict := "ok   "
		if delta > maxRegress {
			verdict = "REGRESS"
			regressions++
		}
		fmt.Fprintf(out, "%s %-50s %12.2f -> %12.2f ns/op  %+6.1f%%\n",
			verdict, name, base, newMed[name], delta*100)
	}
	return regressions, nil
}
