package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p90 needs at least 100 samples and a p99 at least 1000.
const minTail = 10

// summary is a timing distribution reduced to its median and one tail
// percentile, with the sample count behind them.
type summary struct {
	N      int
	P50    float64
	Tail   float64 // the p-quantile asked for
	Beyond int     // samples strictly beyond Tail
}

// percentile returns the nearest-rank p-quantile of xs (the smallest
// sample with at least p·n samples at or below it) and how many samples
// lie beyond that rank. xs is not modified.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// summarize reduces xs to its median and p-quantile.
func summarize(xs []float64, p float64) summary {
	med, _ := percentile(xs, 0.5)
	tail, beyond := percentile(xs, p)
	return summary{N: len(xs), P50: med, Tail: tail, Beyond: beyond}
}

// tailOK reports whether the tail percentile rests on enough samples.
func (s summary) tailOK() bool { return s.Beyond >= minTail }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// classMean is the mean over classes of each class's mean. Every
// (workload, size) class weighs the same however many of its jobs a run
// completed, so the order in which a seed draws the mix does not move it.
func classMean(by map[sized][]float64) float64 {
	means := make([]float64, 0, len(by))
	for _, xs := range by {
		means = append(means, mean(xs))
	}
	// Sum in a fixed order, so equal inputs give equal digits.
	sort.Float64s(means)
	return mean(means)
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// span is one timed call on one job's path, in nanoseconds on a shared
// monotonic base. Key names the layer and operation ("storage.append_record").
type span struct {
	Key        string
	Start, End int64
}

// selfTimes returns each key's exclusive time: a span's duration minus
// the part covered by the spans directly nested in it. Spans of one job
// come from one goroutine, so they nest; a span that starts inside
// another but outlives it is treated as a sibling of its ancestors.
func selfTimes(spans []span) map[string]int64 {
	s := append([]span(nil), spans...)
	// Parents before children: earlier start first, longer span first on
	// a tie.
	sort.Slice(s, func(i, j int) bool {
		if s[i].Start != s[j].Start {
			return s[i].Start < s[j].Start
		}
		return s[i].End > s[j].End
	})
	self := make(map[string]int64)
	var stack []int
	for i, sp := range s {
		for len(stack) > 0 && s[stack[len(stack)-1]].End < sp.End {
			stack = stack[:len(stack)-1]
		}
		dur := sp.End - sp.Start
		self[sp.Key] += dur
		if len(stack) > 0 {
			self[s[stack[len(stack)-1]].Key] -= dur
		}
		stack = append(stack, i)
	}
	return self
}

// tenantJobs attributes calls that carry only a tenant (storage appends)
// to the job that tenant is running. The job engine runs each tenant's
// jobs one at a time, so a tenant names at most one running job.
type tenantJobs map[string]*jobTrace

// attribute records sp on the tenant's running job and returns it, or
// nil when the tenant runs none (the call belongs to no traced job).
func (m tenantJobs) attribute(tenant string, sp span) *jobTrace {
	jt := m[tenant]
	if jt != nil {
		jt.spans = append(jt.spans, sp)
	}
	return jt
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; it is 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// parseProcCPU returns utime+stime in seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted after its closing parenthesis.
func parseProcCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(ut+st) / clockTicks, nil
}

// parseVmHWM returns the peak resident set size in MB from the contents
// of /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}
