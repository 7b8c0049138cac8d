package spark

// Benchmarks comparing the pooled fast path (runWith) against the frozen
// naive reference (runWithNaive) on a PageRank-shaped job. These are the
// allocation-budget benchmarks of the sim rows in BENCH.json; the equivalence
// tests in equiv_test.go guarantee the two paths are bit-identical, so
// any gap measured here is pure overhead.

import (
	"fmt"
	"testing"

	"seamlesstune/internal/cloud"
	"seamlesstune/internal/stat"
)

// benchSimJob mirrors the iterative, cache-bound PageRank plan from
// internal/workload at 8 GB input (the shape is inlined here because
// workload imports spark, so the workload builders cannot be used from
// in-package tests).
func benchSimJob() *Job {
	const (
		size     = int64(8) << 30
		edges    = int64(320e6)
		vertices = int64(16e6)
		iters    = 8
	)
	stages := []Stage{
		{
			ID: 0, Name: "parse-edges", Partitions: FromInputSplits,
			InputBytes: size, Records: edges,
			ComputePerRecord: 0.9e-6, MemPerRecordBytes: 28,
			ShuffleWriteBytes: size + size/10,
			ReadsCachedFrom:   -1, MaxRecordMB: 2,
		},
		{
			ID: 1, Name: "build-adjacency", Deps: []int{0}, Partitions: FromParallelism,
			Records:          vertices,
			ComputePerRecord: 3e-6, MemPerRecordBytes: 420,
			CacheOutput: true, CacheBytes: size + size*6/10,
			ReadsCachedFrom: -1, MaxRecordMB: 4,
			SkewAlpha: 1.4,
		},
	}
	for i := 0; i < iters; i++ {
		id := 2 + i
		stages = append(stages, Stage{
			ID: id, Name: fmt.Sprintf("iteration-%d", i+1), Deps: []int{id - 1},
			Partitions:       FromParallelism,
			Records:          edges,
			ComputePerRecord: 1.1e-6, MemPerRecordBytes: 34,
			ShuffleWriteBytes:  edges * 14,
			ReadsCachedFrom:    1,
			RecomputePerRecord: 5.5e-6,
			MaxRecordMB:        2,
			SkewAlpha:          1.4,
		})
	}
	last := len(stages)
	stages = append(stages, Stage{
		ID: last, Name: "top-ranks", Deps: []int{last - 1}, Partitions: FromParallelism,
		Records:          vertices,
		ComputePerRecord: 0.8e-6, MemPerRecordBytes: 24,
		ReadsCachedFrom: -1, MaxRecordMB: 1,
		CollectMB: 4,
	})
	return &Job{
		Name:         "bench-pagerank",
		Workload:     "pagerank",
		InputBytes:   size,
		DriverNeedMB: 300,
		Stages:       stages,
	}
}

func benchSimCluster(b *testing.B) cloud.ClusterSpec {
	b.Helper()
	it, err := cloud.DefaultCatalog().Lookup("nimbus/h1.4xlarge")
	if err != nil {
		b.Fatal(err)
	}
	return cloud.ClusterSpec{Instance: it, Count: 4}
}

func benchSimConf() Conf {
	c := DefaultConf()
	c.ExecutorInstances = 8
	c.ExecutorCores = 8
	c.ExecutorMemoryMB = 16384
	c.DriverMemoryMB = 4096
	c.DefaultParallelism = 128
	return c
}

// BenchmarkSimRunPooled measures steady-state runWith: the job plan is
// already in the plan registry and the scratch pool is warm, so per-run
// allocations are just the Result's stage slice.
func BenchmarkSimRunPooled(b *testing.B) {
	b.ReportAllocs()
	job, conf, cluster := benchSimJob(), benchSimConf(), benchSimCluster(b)
	rng := stat.NewRNG(1)
	if res := runWith(job, conf, cluster, cloud.Unit(), RunOpts{}, rng); res.Failed {
		b.Fatal(res.Reason)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runWith(job, conf, cluster, cloud.Unit(), RunOpts{}, rng)
		if res.Failed {
			b.Fatal(res.Reason)
		}
	}
}

// BenchmarkSimRunNaive measures the frozen reference implementation on
// the identical job, configuration and cluster.
func BenchmarkSimRunNaive(b *testing.B) {
	b.ReportAllocs()
	job, conf, cluster := benchSimJob(), benchSimConf(), benchSimCluster(b)
	rng := stat.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runWithNaive(job, conf, cluster, cloud.Unit(), RunOpts{}, rng)
		if res.Failed {
			b.Fatal(res.Reason)
		}
	}
}
