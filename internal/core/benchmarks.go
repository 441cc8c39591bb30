package core

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/abea"
	"repro/internal/bsw"
	"repro/internal/chain"
	"repro/internal/dbg"
	"repro/internal/digest"
	"repro/internal/fmindex"
	"repro/internal/genome"
	"repro/internal/grm"
	"repro/internal/kmercnt"
	"repro/internal/nnbase"
	"repro/internal/nnvariant"
	"repro/internal/perf"
	"repro/internal/phmm"
	"repro/internal/pileup"
	"repro/internal/poa"
	"repro/internal/readsim"
	"repro/internal/scratch"
	"repro/internal/signalsim"
	"repro/internal/simio"
)

// The paper's datasets are human-genome scale; this reproduction keeps
// the small:large ratio (~5-10x) at laptop scale. Every build is
// deterministic in (size, seed).

func pick[T any](size Size, small, large T) T {
	if size == Large {
		return large
	}
	return small
}

// Task counts of the task-granular kernels. Each is a pure function of
// size, read both by the entry's build and, as its tasks field, by the
// fabric's coordinator, which is how it partitions a job without
// building the dataset.
func bswTasks(size Size) int     { return pick(size, 4000, 20000) }
func dbgTasks(size Size) int     { return pick(size, 60, 300) }
func phmmTasks(size Size) int    { return pick(size, 30, 150) }
func chainTasks(size Size) int   { return pick(size, 150, 750) }
func poaTasks(size Size) int     { return pick(size, 40, 240) } // paper: 1000/6000 consensus tasks
func pileupRefLen(size Size) int { return pick(size, 600_000, 3_000_000) }
func pileupTasks(size Size) int {
	return (pileupRefLen(size) + pileup.RegionSize - 1) / pileup.RegionSize // SplitRegions' count
}

// Datasets of the kernels whose run takes more than one value.
type (
	fmiData struct {
		index *fmindex.Index
		reads []genome.Seq
	}
	abeaData struct {
		model *signalsim.PoreModel
		reads []signalsim.SignalRead
	}
	nnbaseData struct {
		model *nnbase.Model
		cfg   nnbase.Config
		reads []nnbase.Read
	}
	nnvariantData struct {
		model *nnvariant.Model
		tasks []*nnvariant.Task
	}
)

// kernels is the suite: one kernelDef (core.go) per kernel, in the
// paper's order (Table II). Adding a kernel is adding an entry here.
var kernels = []kernel{
	kernelDef[fmiData]{
		info: Info{
			Name: "fmi", Tool: "BWA-MEM2", Pipeline: "reference-guided",
			Motif: "graph traversal (backward search)", Granularity: "Read",
			WorkUnit: "Occ table lookups", Irregular: true,
		},
		build: func(size Size, seed int64) fmiData {
			rng := rand.New(rand.NewSource(seed))
			ref := genome.NewReference(rng, "chr", pick(size, 200_000, 1_000_000), 0.15)
			index := fmindex.Build(ref.Seq)
			sim := readsim.New(seed + 1)
			cfg := readsim.DefaultShort()
			n := pick(size, 2000, 10000)
			rs := sim.ShortReads(ref.Seq, -1, n, cfg, "r")
			reads := make([]genome.Seq, len(rs))
			for i := range rs {
				reads[i] = rs[i].Seq
			}
			return fmiData{index, reads}
		},
		run: func(ctx context.Context, d fmiData, threads int) (RunStats, error) {
			res, err := fmindex.RunKernelCtx(ctx, d.index, d.reads, fmindex.KernelConfig{MinSeedLen: 19, MinHits: 1, Threads: threads})
			return RunStats{
				Counters:  res.Counters,
				TaskStats: res.TaskStats,
				Extra: map[string]float64{
					"smems":       float64(res.SMEMs),
					"occ_lookups": float64(res.OccLookups),
				},
			}, err
		},
	}.row(),

	kernelDef[[]bsw.Pair]{
		info: Info{
			Name: "bsw", Tool: "BWA-MEM2", Pipeline: "reference-guided",
			Motif: "dynamic programming (banded, 2D)", Granularity: "Seed",
			WorkUnit: "cell updates", Irregular: true,
		},
		build: func(size Size, seed int64) []bsw.Pair {
			rng := rand.New(rand.NewSource(seed))
			ref := genome.NewReference(rng, "chr", 300_000, 0.1)
			n := bswTasks(size)
			pairs := make([]bsw.Pair, 0, n)
			for i := 0; i < n; i++ {
				// Heavy-tailed seed-extension lengths: most extensions are
				// short, a few span long gaps (drives Figure 4's imbalance).
				qLen := 60 + int(40*math.Exp(rng.NormFloat64()*0.7))
				if qLen > 600 {
					qLen = 600
				}
				start := rng.Intn(len(ref.Seq) - qLen - 60)
				q := ref.Seq[start : start+qLen].Clone()
				// Mutate the query a little; a fraction of pairs are unrelated
				// (z-drop candidates).
				var t genome.Seq
				if rng.Float64() < 0.15 {
					t = genome.Random(rng, qLen+40)
				} else {
					t = ref.Seq[start : start+qLen+40].Clone()
					for m := 0; m < qLen/30; m++ {
						t[rng.Intn(len(t))] = genome.Base(rng.Intn(4))
					}
				}
				pairs = append(pairs, bsw.Pair{Query: q, Target: t})
			}
			return pairs
		},
		run: func(ctx context.Context, pairs []bsw.Pair, threads int) (RunStats, error) {
			res, err := bsw.RunKernelCtx(ctx, pairs, bsw.DefaultParams(), threads)
			return RunStats{
				Counters:  res.Counters,
				TaskStats: res.TaskStats,
				Extra: map[string]float64{
					"cells": float64(res.CellUpdates),
					"score": float64(res.TotalScore),
				},
			}, err
		},
		tasks: bswTasks,
		digests: func(pairs []bsw.Pair) (int, func(int) (uint64, uint64)) {
			params, arena := bsw.DefaultParams(), scratch.New()
			return len(pairs), func(task int) (uint64, uint64) {
				p := pairs[task]
				r := bsw.AlignInto(p.Query, p.Target, params, arena)
				return bswDigest(r), r.CellUpdates
			}
		},
	}.row(),

	kernelDef[[]*dbg.Region]{
		info: Info{
			Name: "dbg", Tool: "Platypus", Pipeline: "reference-guided",
			Motif: "graph construction + hashing", Granularity: "Genome Region",
			WorkUnit: "hash table lookups", Irregular: true,
		},
		build: func(size Size, seed int64) []*dbg.Region {
			rng := rand.New(rand.NewSource(seed))
			nRegions := dbgTasks(size)
			sim := readsim.New(seed + 1)
			cfg := readsim.DefaultShort()
			cfg.Length = 100
			regions := make([]*dbg.Region, 0, nRegions)
			for i := 0; i < nRegions; i++ {
				refLen := 200 + rng.Intn(600)
				ref := genome.NewReference(rng, "rg", refLen, 0.05)
				donor := genome.PlantVariants(rng, ref, 0.004, 0.001)
				coverage := 15 + rng.Float64()*35
				reads := sim.CoverageReads(donor, coverage, cfg, "r")
				rg := &dbg.Region{Ref: ref.Seq}
				for _, r := range reads {
					rg.Reads = append(rg.Reads, r.Seq)
				}
				regions = append(regions, rg)
			}
			return regions
		},
		run: func(ctx context.Context, regions []*dbg.Region, threads int) (RunStats, error) {
			res, err := dbg.RunKernelCtx(ctx, regions, dbg.DefaultConfig(), threads)
			return RunStats{
				Counters:  res.Counters,
				TaskStats: res.TaskStats,
				Extra: map[string]float64{
					"haplotypes":    float64(res.Haplotypes),
					"hash_lookups":  float64(res.HashLookups),
					"cycle_retries": float64(res.CycleRetries),
				},
			}, err
		},
		tasks: dbgTasks,
		digests: func(regions []*dbg.Region) (int, func(int) (uint64, uint64)) {
			cfg, asm := dbg.DefaultConfig(), dbg.NewAssembler()
			return len(regions), func(task int) (uint64, uint64) {
				r := asm.AssembleRegion(regions[task], cfg)
				return dbgDigest(r), r.HashLookups
			}
		},
	}.row(),

	kernelDef[[]*phmm.Region]{
		info: Info{
			Name: "phmm", Tool: "GATK HaplotypeCaller", Pipeline: "reference-guided",
			Motif: "dynamic programming (FP, wavefront)", Granularity: "Genome Region",
			WorkUnit: "cell updates", Irregular: true,
		},
		build: func(size Size, seed int64) []*phmm.Region {
			rng := rand.New(rand.NewSource(seed))
			nRegions := phmmTasks(size)
			regions := make([]*phmm.Region, 0, nRegions)
			for i := 0; i < nRegions; i++ {
				// Heavy-tailed region sizes reproduce the paper's Figure 4
				// imbalance (phmm max/mean up to 1000x in the original).
				hapLen := 120 + rng.Intn(180)
				nReads := 4 + rng.Intn(12)
				// GATK's assembler emits up to maxNumHaplotypesInPopulation=128
				// candidate haplotypes per active region; a typical indel-bearing
				// region carries a few dozen. Spanning 4..32 keeps both the
				// lane-batched path (>= 8 haplotypes) and the scalar small-region
				// path (< 8) on the measured profile.
				nHaps := 4 + rng.Intn(29)
				// A few pathological regions (deep pileups over long haplotype
				// sets) dominate, as in the paper's Figure 4 where phmm's max
				// region needs ~1000x the mean computation.
				switch r := rng.Float64(); {
				case r < 0.02:
					hapLen *= 8
					nReads *= 25
					nHaps = 48
				case r < 0.07:
					hapLen *= 3
					nReads *= 6
				}
				base := genome.Random(rng, hapLen)
				rg := &phmm.Region{}
				for h := 0; h < nHaps; h++ {
					hap := base.Clone()
					for m := 0; m < h; m++ {
						hap[rng.Intn(len(hap))] = genome.Base(rng.Intn(4))
					}
					rg.Haps = append(rg.Haps, hap)
				}
				for r := 0; r < nReads; r++ {
					rl := 40 + rng.Intn(40)
					if rl >= hapLen {
						rl = hapLen - 1
					}
					start := rng.Intn(hapLen - rl)
					read := base[start : start+rl].Clone()
					qual := make([]byte, rl)
					for q := range qual {
						qual[q] = byte(20 + rng.Intn(20))
					}
					rg.Reads = append(rg.Reads, read)
					rg.Quals = append(rg.Quals, qual)
				}
				regions = append(regions, rg)
			}
			return regions
		},
		run: func(ctx context.Context, regions []*phmm.Region, threads int) (RunStats, error) {
			res, err := phmm.RunKernelCtx(ctx, regions, threads)
			return RunStats{
				Counters:  res.Counters,
				TaskStats: res.TaskStats,
				Extra: map[string]float64{
					"pairs":     float64(res.Pairs),
					"cells":     float64(res.CellUpdates),
					"fallbacks": float64(res.Fallbacks),
				},
			}, err
		},
		tasks: phmmTasks,
		digests: func(regions []*phmm.Region) (int, func(int) (uint64, uint64)) {
			sc := phmm.NewScratch()
			return len(regions), func(task int) (uint64, uint64) {
				rr := phmm.EvaluateRegionInto(regions[task], sc) // rr's slices are sc's until the next call
				h := digest.Seed
				for _, best := range rr.BestHap {
					h = foldInt(h, best)
				}
				for _, l := range rr.Likelihoods {
					h = foldFloat(h, l)
				}
				return h, rr.CellUpdates
			}
		},
	}.row(),

	kernelDef[[]chain.Task]{
		info: Info{
			Name: "chain", Tool: "Minimap2", Pipeline: "de novo",
			Motif: "dynamic programming (1D)", Granularity: "Read",
			WorkUnit: "input anchors", Irregular: true,
		},
		build: func(size Size, seed int64) []chain.Task {
			rng := rand.New(rand.NewSource(seed))
			src := genome.NewReference(rng, "asm", 150_000, 0.2)
			nTasks := chainTasks(size)
			tasks := make([]chain.Task, 0, nTasks)
			for i := 0; i < nTasks; i++ {
				aLen := 2000 + rng.Intn(4000)
				bLen := 2000 + rng.Intn(4000)
				aStart := rng.Intn(len(src.Seq) - aLen)
				// Overlapping pair with probability 0.7; unrelated otherwise.
				var bStart int
				if rng.Float64() < 0.7 {
					off := rng.Intn(aLen)
					bStart = aStart + off
					if bStart+bLen > len(src.Seq) {
						bStart = len(src.Seq) - bLen
					}
				} else {
					bStart = rng.Intn(len(src.Seq) - bLen)
				}
				readA := src.Seq[aStart : aStart+aLen]
				readB := src.Seq[bStart : bStart+bLen]
				tasks = append(tasks, chain.Task{Anchors: chain.SharedAnchors(readB, readA, 15, 10, 100)})
			}
			return tasks
		},
		run: func(ctx context.Context, tasks []chain.Task, threads int) (RunStats, error) {
			res, err := chain.RunKernelCtx(ctx, tasks, chain.DefaultConfig(), threads)
			return RunStats{
				Counters:  res.Counters,
				TaskStats: res.TaskStats,
				Extra: map[string]float64{
					"chains":      float64(res.Chains),
					"comparisons": float64(res.Comparisons),
				},
			}, err
		},
		tasks: chainTasks,
		digests: func(tasks []chain.Task) (int, func(int) (uint64, uint64)) {
			cfg := chain.DefaultConfig()
			return len(tasks), func(task int) (uint64, uint64) {
				chains, comparisons := chain.ChainAnchors(tasks[task].Anchors, cfg)
				h := digest.Seed
				h = foldInt(h, len(chains))
				for _, c := range chains {
					h = foldFloat(h, c.Score)
					h = foldInt(h, len(c.Anchors))
					for _, a := range c.Anchors {
						h = foldInt(h, a)
					}
				}
				return h, comparisons
			}
		},
	}.row(),

	kernelDef[[]*poa.Window]{
		info: Info{
			Name: "spoa", Tool: "Racon", Pipeline: "de novo",
			Motif: "dynamic programming (graph)", Granularity: "Read Chunk Window",
			WorkUnit: "cell updates", Irregular: true,
		},
		build: func(size Size, seed int64) []*poa.Window {
			rng := rand.New(rand.NewSource(seed))
			nWindows := poaTasks(size)
			windows := make([]*poa.Window, 0, nWindows)
			for i := 0; i < nWindows; i++ {
				truth := genome.Random(rng, 150+rng.Intn(200))
				w := &poa.Window{}
				depth := 6 + rng.Intn(10)
				for r := 0; r < depth; r++ {
					read := truth.Clone()
					// ~5% errors per read.
					for m := 0; m < len(read)/20; m++ {
						switch rng.Intn(3) {
						case 0:
							read[rng.Intn(len(read))] = genome.Base(rng.Intn(4))
						case 1:
							p := rng.Intn(len(read))
							read = append(read[:p], read[p+1:]...)
						default:
							p := rng.Intn(len(read))
							read = append(read[:p], append(genome.Seq{genome.Base(rng.Intn(4))}, read[p:]...)...)
						}
					}
					w.Sequences = append(w.Sequences, read)
				}
				windows = append(windows, w)
			}
			return windows
		},
		run: func(ctx context.Context, windows []*poa.Window, threads int) (RunStats, error) {
			res, err := poa.RunKernelCtx(ctx, windows, poa.DefaultParams(), threads)
			return RunStats{
				Counters:  res.Counters,
				TaskStats: res.TaskStats,
				Extra:     map[string]float64{"cells": float64(res.CellUpdates)},
			}, err
		},
		tasks: poaTasks,
		digests: func(windows []*poa.Window) (int, func(int) (uint64, uint64)) {
			params, graph := poa.DefaultParams(), poa.New()
			return len(windows), func(task int) (uint64, uint64) {
				consensus, cells := poa.ConsensusInto(windows[task], params, graph)
				return poaDigest(consensus), cells
			}
		},
	}.row(),

	kernelDef[abeaData]{
		info: Info{
			Name: "abea", Tool: "Nanopolish/f5c", Pipeline: "de novo",
			Motif: "dynamic programming (adaptive band, FP)", Granularity: "Read",
			WorkUnit: "cell updates", Irregular: true, GPU: true,
		},
		build: func(size Size, seed int64) abeaData {
			rng := rand.New(rand.NewSource(seed))
			d := abeaData{model: signalsim.NewPoreModel()}
			src := genome.NewReference(rng, "chr", 120_000, 0.1)
			n := pick(size, 60, 300) // paper: 1000/10000 FAST5 reads
			// Nanopore read lengths are heavy-tailed; sample per-read bounds.
			for i := 0; i < n; i++ {
				length := 300 + int(500*math.Exp(rng.NormFloat64()*0.8))
				if length > 8000 {
					length = 8000
				}
				d.reads = append(d.reads,
					signalsim.SimulateReads(rng, d.model, src.Seq, 1, length, length, signalsim.DefaultConfig())...)
			}
			return d
		},
		run: func(ctx context.Context, d abeaData, threads int) (RunStats, error) {
			res, err := abea.RunKernelCtx(ctx, d.model, d.reads, abea.DefaultConfig(), threads)
			return RunStats{
				Counters:  res.Counters,
				TaskStats: res.TaskStats,
				Extra: map[string]float64{
					"cells":       float64(res.CellUpdates),
					"out_of_band": float64(res.OutOfBand),
				},
			}, err
		},
	}.row(),

	kernelDef[*grm.Genotypes]{
		info: Info{
			Name: "grm", Tool: "PLINK2", Pipeline: "population",
			Motif: "dense matrix multiplication", Granularity: "Output element",
			WorkUnit: "multiply-accumulates", Irregular: false,
		},
		build: func(size Size, seed int64) *grm.Genotypes {
			rng := rand.New(rand.NewSource(seed))
			// Paper: 2504 individuals x 194K/1.07M variants; scaled.
			n := pick(size, 160, 320)
			s := pick(size, 3000, 12000)
			return grm.Simulate(rng, n, s, 0.1)
		},
		run: func(ctx context.Context, g *grm.Genotypes, threads int) (RunStats, error) {
			res, err := grm.RunKernelCtx(ctx, g, 64, threads)
			ts := perf.NewTaskStats("multiply-accumulates")
			ts.Observe(float64(res.FLOPs))
			return RunStats{
				Counters:  res.Counters,
				TaskStats: ts,
				Extra:     map[string]float64{"flops": float64(res.FLOPs)},
			}, err
		},
	}.row(),

	kernelDef[nnbaseData]{
		info: Info{
			Name: "nn-base", Tool: "Bonito", Pipeline: "de novo",
			Motif: "dense neural network (CNN + CTC)", Granularity: "Signal chunk",
			WorkUnit: "multiply-accumulates", Irregular: false, GPU: true,
		},
		build: func(size Size, seed int64) nnbaseData {
			rng := rand.New(rand.NewSource(seed))
			d := nnbaseData{cfg: nnbase.DefaultConfig()}
			d.cfg.Channels = 32
			d.cfg.Blocks = 3
			d.model = nnbase.NewModel(seed, d.cfg)
			pore := signalsim.NewPoreModel()
			src := genome.NewReference(rng, "chr", 60_000, 0.1)
			n := pick(size, 6, 30)
			for i := 0; i < n; i++ {
				length := 400 + rng.Intn(800)
				start := rng.Intn(len(src.Seq) - length)
				sig := signalsim.RawSignal(rng, pore, src.Seq[start:start+length], signalsim.DefaultConfig())
				d.reads = append(d.reads, nnbase.Read{Name: "sig", Signal: sig})
			}
			return d
		},
		run: func(ctx context.Context, d nnbaseData, threads int) (RunStats, error) {
			res, err := nnbase.RunKernelCtx(ctx, d.model, d.reads, d.cfg, threads)
			return RunStats{
				Counters:  res.Counters,
				TaskStats: res.TaskStats,
				Extra: map[string]float64{
					"macs":  float64(res.MACs),
					"bases": float64(res.BasesOut),
				},
			}, err
		},
	}.row(),

	kernelDef[[]*pileup.Region]{
		info: Info{
			Name: "pileup", Tool: "Medaka", Pipeline: "reference-guided",
			Motif: "record parsing + counting", Granularity: "Read",
			WorkUnit: "read lookups", Irregular: true,
		},
		build: func(size Size, seed int64) []*pileup.Region {
			rng := rand.New(rand.NewSource(seed))
			refLen := pileupRefLen(size)
			ref := genome.NewReference(rng, "chr", refLen, 0.1)
			n := pick(size, 1500, 7500)
			alns := simio.SimulateAlignments(rng, ref.Seq, n, simio.DefaultAlignSim())
			// Coverage is uneven across the genome (mappability, GC bias):
			// skew alignment starts toward the front half so regions differ.
			for _, a := range alns {
				f := rng.Float64()
				maxPos := refLen - a.Cigar.RefLen() - 1
				if maxPos > 0 {
					a.Pos = int(f * f * float64(maxPos))
				}
			}
			return pileup.SplitRegions(refLen, alns, pileup.RegionSize)
		},
		run: func(ctx context.Context, regions []*pileup.Region, threads int) (RunStats, error) {
			res, err := pileup.RunKernelCtx(ctx, regions, threads)
			return RunStats{
				Counters:  res.Counters,
				TaskStats: res.TaskStats,
				Extra: map[string]float64{
					"read_lookups": float64(res.ReadLookups),
					"depth":        float64(res.TotalDepth),
				},
			}, err
		},
		tasks: pileupTasks,
		digests: func(regions []*pileup.Region) (int, func(int) (uint64, uint64)) {
			return len(regions), func(task int) (uint64, uint64) {
				counts, lookups := pileup.CountRegion(regions[task])
				h := digest.Seed
				h = foldInt(h, len(counts))
				for i := range counts {
					c := &counts[i]
					for s := 0; s < 2; s++ {
						for base := 0; base < 4; base++ {
							h = digest.Word(h, uint64(c.Base[s][base]))
						}
						h = digest.Word(h, uint64(c.Ins[s]))
						h = digest.Word(h, uint64(c.Del[s]))
					}
				}
				return h, uint64(lookups)
			}
		},
	}.row(),

	kernelDef[nnvariantData]{
		info: Info{
			Name: "nn-variant", Tool: "Clair", Pipeline: "reference-guided",
			Motif: "dense neural network (BiLSTM)", Granularity: "Candidate position",
			WorkUnit: "multiply-accumulates", Irregular: false, GPU: true,
		},
		build: func(size Size, seed int64) nnvariantData {
			rng := rand.New(rand.NewSource(seed))
			d := nnvariantData{model: nnvariant.NewModel(seed, nnvariant.DefaultConfig())}
			refLen := pick(size, 40_000, 200_000)
			ref := genome.NewReference(rng, "chr", refLen, 0.05)
			alns := simio.SimulateAlignments(rng, ref.Seq, pick(size, 250, 1250), simio.AlignSimConfig{
				MeanReadLen: 2000, SubRate: 0.02, InsRate: 0.01, DelRate: 0.01,
				MeanQual: 20, RefName: "chr",
			})
			regions := pileup.SplitRegions(refLen, alns, 10_000)
			for _, rg := range regions {
				counts, _ := pileup.CountRegion(rg)
				cands := nnvariant.SelectCandidates(counts, ref.Seq, rg.Start, 8, 0.25)
				// Cap candidates per region to bound runtime like Clair's
				// batching does.
				if len(cands) > 40 {
					cands = cands[:40]
				}
				d.tasks = append(d.tasks, &nnvariant.Task{Counts: counts, Candidates: cands})
			}
			return d
		},
		run: func(ctx context.Context, d nnvariantData, threads int) (RunStats, error) {
			res, err := nnvariant.RunKernelCtx(ctx, d.model, d.tasks, threads)
			return RunStats{
				Counters:  res.Counters,
				TaskStats: res.TaskStats,
				Extra: map[string]float64{
					"calls": float64(res.Calls),
					"macs":  float64(res.MACs),
				},
			}, err
		},
	}.row(),

	kernelDef[[]genome.Seq]{
		info: Info{
			Name: "kmer-cnt", Tool: "Flye", Pipeline: "de novo",
			Motif: "hashing (regular input, random access)", Granularity: "Read",
			WorkUnit: "hash table inserts", Irregular: false,
		},
		build: func(size Size, seed int64) []genome.Seq {
			rng := rand.New(rand.NewSource(seed))
			src := genome.NewReference(rng, "chr", 400_000, 0.1)
			sim := readsim.New(seed + 1)
			cfg := readsim.DefaultLong()
			cfg.MeanLength = 3000
			n := pick(size, 150, 750)
			rs := sim.LongReads(src.Seq, -1, n, cfg, "l")
			reads := make([]genome.Seq, len(rs))
			for i := range rs {
				reads[i] = rs[i].Seq
			}
			return reads
		},
		run: func(ctx context.Context, reads []genome.Seq, threads int) (RunStats, error) {
			res, err := kmercnt.RunKernelCtx(ctx, reads, 17, threads, kmercnt.Linear)
			return RunStats{
				Counters:  res.Counters,
				TaskStats: res.TaskStats,
				Extra: map[string]float64{
					"kmers":    float64(res.Kmers),
					"distinct": float64(res.Distinct),
					"probes":   float64(res.Probes),
				},
			}, err
		},
	}.row(),
}

// mustRun is RunCtx for callers with nothing to cancel and no fault
// plan armed (the figure and table generators), where a failure is a
// bug: it panics.
func mustRun(b Benchmark, threads int) RunStats {
	stats, err := b.RunCtx(context.Background(), threads)
	if err != nil {
		panic(err)
	}
	return stats
}
