package spark

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"seamlesstune/internal/cloud"
	"seamlesstune/internal/stat"
)

// This file retains the pre-optimization simulator verbatim. The pooled
// fast path in run.go must stay bit-identical to it — equivalence and
// property tests (equiv_test.go) run both implementations on randomized
// jobs, configurations and seeds and require exactly equal Results. The
// naive path allocates freshly on every call and recomputes every
// per-job invariant, so it is also the allocation baseline that
// BenchmarkSimRunNaive (the sim-naive row of BENCH.json) measures. It
// lives in a _test.go file so it never ships in a binary.
//
// Do not "fix" or optimize this file: it is the reference semantics.

// runWithNaive is the retained reference simulation.
func runWithNaive(job *Job, conf Conf, cluster cloud.ClusterSpec, factors cloud.Factors, opts RunOpts, rng *rand.Rand) Result {
	if err := job.Validate(); err != nil {
		return Result{Failed: true, Reason: ReasonBadJob}
	}
	if err := cluster.Validate(); err != nil {
		return Result{Failed: true, Reason: ReasonBadCluster}
	}
	if factors == (cloud.Factors{}) {
		factors = cloud.Unit()
	}

	alloc, failReason := allocate(conf, cluster)
	if failReason != "" {
		return Result{Failed: true, Reason: failReason, RuntimeS: 15, CostUSD: cluster.CostOf(15)}
	}

	if conf.Serializer == KryoSerializer {
		for _, s := range job.Stages {
			if s.MaxRecordMB > float64(conf.KryoBufferMaxMB) {
				t := 20.0
				return Result{Failed: true, Reason: ReasonKryoOverflow, RuntimeS: t, CostUSD: cluster.CostOf(t)}
			}
		}
	}

	driverNeed := job.DriverNeedMB
	for _, s := range job.Stages {
		driverNeed += s.BroadcastMB
	}
	if driverNeed > float64(conf.DriverMemoryMB) {
		t := 10.0
		return Result{Failed: true, Reason: ReasonDriverOOM, RuntimeS: t, CostUSD: cluster.CostOf(t)}
	}

	if conf.OffHeapEnabled && conf.OffHeapSizeMB < 128 {
		t := 30.0
		return Result{Failed: true, Reason: ReasonContainerKilled, RuntimeS: t, CostUSD: cluster.CostOf(t)}
	}
	needOverheadMB := 256 + 0.25*float64(conf.ReducerMaxInFlightMB*conf.ShuffleConnsPerPeer) +
		0.02*float64(conf.ExecutorMemoryMB)
	containerPressure := stat.Clamp((needOverheadMB-conf.OverheadMB())/needOverheadMB, 0, 0.6)

	sim := &naiveState{
		job: job, conf: conf, cluster: cluster, factors: factors, rng: rng,
		opts: opts, alloc: alloc, containerPressure: containerPressure,
		cached: make(map[int]cacheEntry),
	}
	return sim.run()
}

// naiveState is the retained reference of the pre-optimization runState.
type naiveState struct {
	job     *Job
	conf    Conf
	cluster cloud.ClusterSpec
	factors cloud.Factors
	rng     *rand.Rand
	opts    RunOpts
	alloc   allocation

	containerPressure float64
	cached            map[int]cacheEntry
	storageUsedMB     float64

	res Result
}

func (s *naiveState) coreSpeed() float64 {
	return s.cluster.Instance.CPUFactor / s.factors.CPU
}

func (s *naiveState) storageCapMB() float64 {
	perExec := float64(s.conf.ExecutorMemoryMB) * s.conf.MemoryFraction * s.conf.StorageFraction
	return perExec * float64(s.alloc.executors)
}

func (s *naiveState) execMemPerTaskMB() float64 {
	unifiedPerExec := float64(s.conf.ExecutorMemoryMB) * s.conf.MemoryFraction
	protectedPerExec := unifiedPerExec * s.conf.StorageFraction
	cachePerExec := s.storageUsedMB / float64(s.alloc.executors)
	pinned := math.Min(cachePerExec, protectedPerExec)
	execAvail := unifiedPerExec - pinned
	if s.conf.OffHeapEnabled {
		execAvail += float64(s.conf.OffHeapSizeMB)
	}
	if execAvail < 0 {
		execAvail = 0
	}
	return execAvail / float64(s.alloc.slotsPer)
}

func (s *naiveState) heapUtil(taskWorkingMB float64) float64 {
	heap := float64(s.conf.ExecutorMemoryMB)
	cachePerExec := s.storageUsedMB / float64(s.alloc.executors)
	inUse := cachePerExec + taskWorkingMB*float64(s.alloc.slotsPer) + 0.12*heap
	return inUse / heap
}

func (s *naiveState) run() Result {
	conf, alloc := s.conf, s.alloc
	s.res.Executors = alloc.executors
	s.res.SlotsTotal = alloc.slotsTotal

	clock := 2.0 + 0.08*float64(alloc.executors)
	if conf.DynAllocEnabled {
		clock += 1.5
	}

	pressureMult := 1 + 0.5*s.containerPressure

	done := make(map[int]bool, len(s.job.Stages))
	metricAt := make(map[int]int, len(s.job.Stages))
	for len(done) < len(s.job.Stages) && !s.res.Failed {
		var wave []stageWork
		for i := range s.job.Stages {
			stage := &s.job.Stages[i]
			if done[stage.ID] {
				continue
			}
			ready := true
			for _, d := range stage.Deps {
				if !done[d] {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, s.prepareStage(stage))
			}
		}
		if len(wave) == 0 {
			s.res.Failed = true
			s.res.Reason = ReasonBadJob
			break
		}

		combined := combineWave(wave, conf.SchedulerFair)
		waveMakespan := listSchedule(combined, alloc.slotsTotal) * pressureMult
		overheads := 0.0
		failReason := ""
		for _, w := range wave {
			overheads += w.overhead
			own := listSchedule(w.durations, alloc.slotsTotal) * pressureMult
			w.sm.DurationS = own + w.overhead
			if w.failReason != "" && failReason == "" {
				failReason = w.failReason
			}
			metricAt[w.stage.ID] = len(s.res.Stages)
			s.res.Stages = append(s.res.Stages, w.sm)
			s.res.TotalSpillBytes += w.sm.SpillBytes
			s.res.TotalShuffleRead += w.sm.ShuffleRead
			s.res.TotalShuffleWrite += w.sm.ShuffleWrite
			s.res.TotalGCSeconds += w.sm.GCSeconds
			done[w.stage.ID] = true
		}
		clock += waveMakespan + overheads
		if failReason != "" {
			s.res.Failed = true
			s.res.Reason = failReason
			break
		}
		for _, w := range wave {
			if w.stage.CacheOutput {
				s.admitCache(w.stage)
			}
		}

		if s.opts.ExecutorMTBFHours > 0 && waveMakespan > 0 {
			lossP := 1 - math.Exp(-float64(alloc.executors)*waveMakespan/3600/s.opts.ExecutorMTBFHours)
			if s.rng.Float64() < lossP {
				s.res.ExecutorsLost++
				share := 1 / float64(alloc.executors)
				penalty := 10 + waveMakespan*share
				if !conf.ShuffleService {
					penalty += waveMakespan * share
				}
				clock += penalty
				for id, e := range s.cached {
					e.frac *= 1 - share
					s.cached[id] = e
				}
				if len(wave) > 0 {
					idx := metricAt[wave[len(wave)-1].stage.ID]
					s.res.Stages[idx].DurationS += penalty
				}
			}
		}
	}

	s.res.RuntimeS = clock
	s.res.CostUSD = s.cluster.CostOf(clock)
	return s.res
}

func (s *naiveState) admitCache(stage *Stage) {
	sizeMB := float64(stage.CacheBytes) / mb
	if s.conf.RDDCompress {
		prof := codecTable(s.conf.Codec)
		sizeMB *= prof.ratio
	}
	avail := s.storageCapMB() - s.storageUsedMB
	frac := 1.0
	if sizeMB > 0 && !s.opts.Ablate.NoCacheLimit {
		frac = stat.Clamp(avail/sizeMB, 0, 1)
	}
	s.cached[stage.ID] = cacheEntry{sizeMB: sizeMB, frac: frac}
	s.storageUsedMB += sizeMB * frac
}

func (s *naiveState) numTasks(stage *Stage) int {
	switch stage.Partitions {
	case FromInputSplits:
		splits := int(math.Ceil(float64(stage.InputBytes) / (float64(s.conf.MaxPartitionBytesMB) * mb)))
		return maxInt(splits, 1)
	case FromShufflePartitions:
		return maxInt(s.conf.ShufflePartitions, 1)
	default:
		return maxInt(s.conf.DefaultParallelism, 1)
	}
}

func (s *naiveState) skewMultipliers(stage *Stage, n int) []float64 {
	w := make([]float64, n)
	if stage.SkewAlpha <= 0 || s.opts.Ablate.NoSkew {
		for i := range w {
			w[i] = 1
		}
		return w
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", s.job.Name, stage.ID, n)
	skewRNG := stat.NewRNG(int64(h.Sum64()))
	sum := 0.0
	for i := range w {
		w[i] = stat.Pareto(skewRNG, 1, stage.SkewAlpha)
		sum += w[i]
	}
	scale := float64(n) / sum
	for i := range w {
		w[i] *= scale
	}
	return w
}

func (s *naiveState) prepareStage(stage *Stage) stageWork {
	conf, alloc, inst := s.conf, s.alloc, s.cluster.Instance
	n := s.numTasks(stage)
	sm := StageMetrics{ID: stage.ID, Name: stage.Name, Tasks: n, InputBytes: stage.InputBytes}

	concurrentPerNode := math.Max(1, float64(minInt(n, alloc.slotsTotal))/float64(s.cluster.Count))
	diskPerTask := inst.DiskMBps / s.factors.Disk / concurrentPerNode
	netPerTask := inst.NetworkMBps / s.factors.Net / concurrentPerNode

	coreSpeed := s.coreSpeed()
	taskSpeed := coreSpeed * (1 + 0.6*float64(conf.TaskCPUs-1))

	serCPU, serSize := serializerProfile(conf.Serializer)
	codec := codecTable(conf.Codec)
	ratioMul, cpuMul := blockSizeFactor(conf.CompressionBlockKB)
	cRatio, cCPU, dCPU := codec.ratio*ratioMul, codec.compressS*cpuMul, codec.decompress*cpuMul

	execMemPerTask := s.execMemPerTaskMB()

	if stage.HardMemMB > 0 && execMemPerTask < stage.HardMemMB {
		attempts := maxInt(conf.TaskMaxFailures, 1)
		waste := 6.0 * float64(attempts)
		sm.DurationS = waste
		sm.FailedTasks = attempts
		return stageWork{stage: stage, sm: sm, overhead: waste, failReason: ReasonTaskOOM}
	}

	broadcast := 0.0
	if stage.BroadcastMB > 0 {
		bMB := stage.BroadcastMB
		cpu := 0.0
		if conf.BroadcastCompress {
			cpu += stage.BroadcastMB * (cCPU + dCPU) / coreSpeed
			bMB *= cRatio
		}
		blocks := math.Ceil(bMB / float64(maxInt(conf.BroadcastBlockMB, 1)))
		perExecNet := inst.NetworkMBps / s.factors.Net / math.Max(1, alloc.execsPerNode)
		depth := math.Log2(float64(alloc.executors) + 1)
		broadcast = bMB/perExecNet*depth + 0.002*blocks + cpu
	}

	var fetchTotalMB float64
	for _, d := range stage.Deps {
		for _, m := range s.res.Stages {
			if m.ID == d {
				fetchTotalMB += float64(m.ShuffleWrite) / mb
			}
		}
	}

	inputPerTaskMB := float64(stage.InputBytes) / mb / float64(n)
	pNonLocal := math.Max(0, 1-float64(alloc.nodesUsed)/float64(s.cluster.Count))

	writePerTaskMB := float64(stage.ShuffleWriteBytes) / mb / float64(n) * serSize
	writeDiskMB := writePerTaskMB
	writeCPU := writePerTaskMB * serCPU / coreSpeed
	if conf.ShuffleCompress && writePerTaskMB > 0 {
		writeCPU += writePerTaskMB * cCPU / coreSpeed
		writeDiskMB *= cRatio
	}
	downstreamParts := float64(maxInt(conf.ShufflePartitions, conf.DefaultParallelism))
	sortCPU := 0.0
	if stage.ShuffleWriteBytes > 0 {
		if int(downstreamParts) <= conf.ShuffleBypassMerge {
			sortCPU = 0.0001 * downstreamParts / coreSpeed
		} else {
			sortCPU = writePerTaskMB * 0.004 / coreSpeed
		}
	}
	fileFactor := fileBufferFactor(conf.ShuffleFileBufferKB)
	inFlight := inFlightFactor(conf.ReducerMaxInFlightMB, conf.ShuffleConnsPerPeer)

	var cacheFrac float64
	var cachedCompressed bool
	if stage.ReadsCachedFrom >= 0 {
		e, ok := s.cached[stage.ReadsCachedFrom]
		if ok {
			cacheFrac = e.frac
		}
		cachedCompressed = s.conf.RDDCompress
		sm.CacheHitFrac = cacheFrac
	}

	recordsPerTask := float64(stage.Records) / float64(n)
	workingMBBase := recordsPerTask * stage.MemPerRecordBytes / mb
	gcFrac := gcFraction(s.heapUtil(math.Min(workingMBBase, execMemPerTask)), float64(conf.ExecutorMemoryMB), alloc.slotsPer, conf.GCThreads)
	if s.opts.Ablate.NoGC {
		gcFrac = 0
	}

	skew := s.skewMultipliers(stage, n)
	durations := make([]float64, n)
	var spillBytes int64
	var gcSeconds float64

	for i := 0; i < n; i++ {
		w := skew[i]
		records := recordsPerTask * w
		dur := 0.0

		if inputPerTaskMB > 0 {
			localRead := inputPerTaskMB * w / diskPerTask
			if s.rng.Float64() < pNonLocal {
				remoteRead := inputPerTaskMB * w / (netPerTask * 0.9)
				waited := conf.LocalityWaitS + localRead
				dur += math.Min(waited, remoteRead)
			} else {
				dur += localRead
			}
		}

		if fetchTotalMB > 0 {
			fetchMB := fetchTotalMB / float64(n) * w
			dur += fetchMB / (netPerTask * inFlight)
			dur += fetchMB / (diskPerTask * 2)
			uncompressed := fetchMB
			if conf.ShuffleCompress {
				uncompressed = fetchMB / cRatio
				dur += uncompressed * dCPU / coreSpeed
			}
			dur += uncompressed * serCPU / coreSpeed
			sm.ShuffleRead += int64(fetchMB * mb)
		}

		if stage.ReadsCachedFrom >= 0 {
			hit := records * cacheFrac
			miss := records - hit
			if cachedCompressed && hit > 0 {
				hitMB := hit * stage.MemPerRecordBytes / mb
				dur += hitMB * dCPU / coreSpeed
			}
			if miss > 0 {
				dur += miss * stage.RecomputePerRecord / taskSpeed
			}
		}

		compute := records * stage.ComputePerRecord / taskSpeed
		gc := compute * gcFrac
		dur += compute + gc
		gcSeconds += gc

		workingMB := records * stage.MemPerRecordBytes / mb
		if workingMB > execMemPerTask && execMemPerTask > 0 && !s.opts.Ablate.NoSpill {
			over := workingMB - execMemPerTask
			passes := 1 + math.Floor(over/execMemPerTask)
			spillMB := over * (1 + 0.5*math.Min(passes, 3))
			diskMB := spillMB
			if conf.ShuffleSpillCompress {
				dur += spillMB * (cCPU + dCPU) / coreSpeed
				diskMB *= cRatio
			}
			dur += 2 * diskMB / diskPerTask
			spillBytes += int64(diskMB * mb)
		}

		if writePerTaskMB > 0 {
			dur += writeCPU*w + sortCPU*w
			dur += writeDiskMB * w / (diskPerTask * fileFactor)
			sm.ShuffleWrite += int64(writeDiskMB * w * mb)
		}

		noise := 1.0
		if !s.opts.Ablate.NoNoise {
			noise = stat.Lognormal(s.rng, -stragglerSigma*stragglerSigma/2, stragglerSigma)
		}
		durations[i] = dur * noise
	}

	if conf.Speculation && n >= 4 {
		sorted := append([]float64(nil), durations...)
		sort.Float64s(sorted)
		q := stat.Quantile(sorted, conf.SpeculationQuantile)
		limit := q*conf.SpeculationMultiplier + 0.5
		for i := range durations {
			if durations[i] > limit {
				durations[i] = limit
			}
		}
	}

	dispatch := float64(n) * 0.002 / float64(maxInt(conf.DriverCores, 1))
	overhead := 0.08 + dispatch
	if conf.SchedulerFair {
		overhead += float64(n) * 0.0002
	}
	overhead += float64(alloc.executors) * 0.0005 * (30 / float64(maxInt(conf.HeartbeatIntervalS, 1)))

	collect := 0.0
	if stage.CollectMB > 0 {
		driverNet := inst.NetworkMBps / s.factors.Net
		collect = stage.CollectMB / driverNet
	}

	sm.SpillBytes = spillBytes
	sm.GCSeconds = gcSeconds / math.Max(1, float64(alloc.slotsTotal))
	return stageWork{
		stage:     stage,
		sm:        sm,
		durations: durations,
		overhead:  broadcast + overhead + collect,
	}
}
