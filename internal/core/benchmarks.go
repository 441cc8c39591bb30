package core

import (
	"context"
	"math"
	"math/rand"
	"slices"

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
		loop: perTask[fmiData, *smemChunk, *smemChunk]{
			n: func(d fmiData) int { return (len(d.reads) + fmiChunk - 1) / fmiChunk },
			worker: func(d fmiData, _ *scratch.Pool, _ int) *smemChunk {
				return &smemChunk{engine: fmindex.NewBatchEngine(d.index, 0, nil)}
			},
			task: func(d fmiData, c *smemChunk, i int) *smemChunk {
				c.search(d.reads[i*fmiChunk : min((i+1)*fmiChunk, len(d.reads))])
				return c
			},
			digest: func(c *smemChunk) (uint64, uint64) {
				h := digest.Seed
				for _, span := range c.spans {
					h = foldInt(h, span[1]-span[0])
					for _, m := range c.smems[span[0]:span[1]] {
						h = foldInt(h, m.QBeg)
						h = foldInt(h, m.QEnd)
						h = foldInt(h, m.Interval.K)
						h = foldInt(h, m.Interval.L)
						h = foldInt(h, m.Interval.S)
					}
				}
				return h, c.total
			},
			unit:    "occ lookups",
			extra:   []string{"smems", "occ_lookups"},
			samples: func(d fmiData) int { return len(d.reads) },
			tally: func(_ fmiData, i int, c *smemChunk) tally {
				return tally{work: c.total, sums: [3]int64{int64(len(c.smems)), int64(c.total)},
					first: i * fmiChunk, works: slices.Clone(c.lookups)}
			},
			counters: func(t tally) (c perf.Counters) {
				// Operation mix per Occ lookup (memory heavy, matching the
				// paper's fmi profile); the weights do not follow the
				// Occ block layout.
				c.Add(perf.Load, t.work*3)
				c.Add(perf.IntALU, t.work*4)
				c.Add(perf.Branch, t.work)
				return c
			},
		}.with,
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
		loop: perTask[[]bsw.Pair, *scratch.Arena, bsw.Result]{
			n:      func(pairs []bsw.Pair) int { return len(pairs) },
			worker: arena[[]bsw.Pair],
			task: func(pairs []bsw.Pair, a *scratch.Arena, i int) bsw.Result {
				return bsw.AlignInto(pairs[i].Query, pairs[i].Target, bsw.DefaultParams(), a)
			},
			digest:  func(r bsw.Result) (uint64, uint64) { return bswDigest(r), r.CellUpdates },
			chunked: true,
			unit:    "cell updates",
			extra:   []string{"cells", "score"},
			tally: func(_ []bsw.Pair, _ int, r bsw.Result) tally {
				return tally{work: r.CellUpdates, sums: [3]int64{int64(r.CellUpdates), int64(r.Score)}}
			},
			counters: func(t tally) (c perf.Counters) {
				// bsw is compute-bound with heavy vector usage in the
				// original: each cell is a handful of max/blend ops plus
				// two row-array touches.
				c.Add(perf.VecOp, t.work*6)
				c.Add(perf.IntALU, t.work*2)
				c.Add(perf.Load, t.work*2)
				c.Add(perf.Store, t.work)
				c.Add(perf.Branch, t.work/4)
				return c
			},
		}.with,
		tasks: bswTasks,
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
		loop: perTask[[]*dbg.Region, *dbg.Assembler, dbg.Result]{
			n:      func(regions []*dbg.Region) int { return len(regions) },
			worker: func([]*dbg.Region, *scratch.Pool, int) *dbg.Assembler { return dbg.NewAssembler() },
			task: func(regions []*dbg.Region, a *dbg.Assembler, i int) dbg.Result {
				return a.AssembleRegion(regions[i], dbg.DefaultConfig())
			},
			digest: func(r dbg.Result) (uint64, uint64) { return dbgDigest(r), r.HashLookups },
			unit:   "hash lookups",
			extra:  []string{"haplotypes", "hash_lookups", "cycle_retries"},
			tally: func(_ []*dbg.Region, _ int, r dbg.Result) tally {
				return tally{work: r.HashLookups, sums: [3]int64{int64(len(r.Haplotypes)), int64(r.HashLookups), int64(r.CycleRetries)}}
			},
			counters: func(t tally) (c perf.Counters) {
				// Hash-table dominated: every lookup carries hashing
				// arithmetic, k-mer packing, probe loads and compare
				// branches (Platypus' assembly loop runs ~18 instructions
				// per lookup).
				c.Add(perf.Load, t.work*5)
				c.Add(perf.IntALU, t.work*9)
				c.Add(perf.Store, t.work)
				c.Add(perf.Branch, t.work*3)
				return c
			},
		}.with,
		tasks: dbgTasks,
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
				// region carries a few dozen. Spanning 4..32 keeps both lane
				// passes on the measured profile: haplotype lanes for full
				// groups of 8, read lanes for regions under 8 and the tails.
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
		loop: perTask[[]*phmm.Region, *phmm.Scratch, phmm.RegionResult]{
			n:      func(regions []*phmm.Region) int { return len(regions) },
			worker: func([]*phmm.Region, *scratch.Pool, int) *phmm.Scratch { return phmm.NewScratch() },
			task: func(regions []*phmm.Region, sc *phmm.Scratch, i int) phmm.RegionResult {
				return phmm.EvaluateRegionInto(regions[i], sc) // its slices are sc's until the next call
			},
			digest: func(rr phmm.RegionResult) (uint64, uint64) {
				h := digest.Seed
				for _, best := range rr.BestHap {
					h = foldInt(h, best)
				}
				for _, l := range rr.Likelihoods {
					h = foldFloat(h, l)
				}
				return h, rr.CellUpdates
			},
		}.with,
		tasks: phmmTasks,
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
		loop: perTask[[]chain.Task, struct{}, counted[[]chain.Chain]]{
			n: func(tasks []chain.Task) int { return len(tasks) },
			task: func(tasks []chain.Task, _ struct{}, i int) counted[[]chain.Chain] {
				chains, comparisons := chain.ChainAnchors(tasks[i].Anchors, chain.DefaultConfig())
				return counted[[]chain.Chain]{chains, comparisons}
			},
			digest: func(r counted[[]chain.Chain]) (uint64, uint64) {
				h := foldInt(digest.Seed, len(r.answer))
				for _, c := range r.answer {
					h = foldFloat(h, c.Score)
					h = foldInt(h, len(c.Anchors))
					for _, a := range c.Anchors {
						h = foldInt(h, a)
					}
				}
				return h, r.work
			},
			unit:  "input anchors",
			extra: []string{"chains", "comparisons"},
			tally: func(tasks []chain.Task, i int, r counted[[]chain.Chain]) tally {
				return tally{work: uint64(len(tasks[i].Anchors)), sums: [3]int64{int64(len(r.answer)), int64(r.work)}}
			},
			counters: func(t tally) (c perf.Counters) {
				// Chaining is scalar compute-bound: per comparison roughly
				// a dozen integer ops for the gap geometry, an FP gap-cost
				// evaluation (with log2) and data-dependent branches.
				comparisons := uint64(t.sums[1])
				c.Add(perf.IntALU, comparisons*10)
				c.Add(perf.FloatOp, comparisons*4)
				c.Add(perf.Load, comparisons*3)
				c.Add(perf.Branch, comparisons*4)
				return c
			},
		}.with,
		tasks: chainTasks,
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
		loop: perTask[[]*poa.Window, *poa.Graph, counted[genome.Seq]]{
			n:      func(windows []*poa.Window) int { return len(windows) },
			worker: func([]*poa.Window, *scratch.Pool, int) *poa.Graph { return poa.New() },
			task: func(windows []*poa.Window, g *poa.Graph, i int) counted[genome.Seq] {
				consensus, cells := poa.ConsensusInto(windows[i], poa.DefaultParams(), g)
				return counted[genome.Seq]{consensus, cells}
			},
			digest: func(r counted[genome.Seq]) (uint64, uint64) { return seqDigest(r.answer), r.work },
			unit:   "cell updates",
			extra:  []string{"cells"},
			tally: func(_ []*poa.Window, _ int, r counted[genome.Seq]) tally {
				return tally{work: r.work, sums: [3]int64{int64(r.work)}}
			},
			counters: func(t tally) (c perf.Counters) {
				// spoa vectorizes the row DP with shifts/blends; graph
				// updates add pointer-chasing loads.
				c.Add(perf.VecOp, t.work*4)
				c.Add(perf.IntALU, t.work*2)
				c.Add(perf.Load, t.work*3)
				c.Add(perf.Store, t.work)
				c.Add(perf.Branch, t.work/2)
				return c
			},
		}.with,
		tasks: poaTasks,
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
		loop: perTask[abeaData, *scratch.Arena, abea.Result]{
			n:      func(d abeaData) int { return len(d.reads) },
			worker: arena[abeaData],
			task: func(d abeaData, a *scratch.Arena, i int) abea.Result {
				return abea.AlignLanesInto(d.model, d.reads[i].Seq, d.reads[i].Events, abea.DefaultConfig(), a)
			},
			digest: func(r abea.Result) (uint64, uint64) { return abeaDigest(r), r.CellUpdates },
			unit:   "cell updates",
			extra:  []string{"cells", "out_of_band"},
			tally: func(_ abeaData, _ int, r abea.Result) tally {
				t := tally{work: r.CellUpdates, sums: [3]int64{int64(r.CellUpdates)}}
				if r.OutOfBand {
					t.sums[1] = 1
				}
				return t
			},
			counters: func(t tally) (c perf.Counters) {
				// 32-bit float log-likelihood DP: FP-heavy with
				// model-table loads.
				c.Add(perf.FloatOp, t.work*5)
				c.Add(perf.Load, t.work*3)
				c.Add(perf.Store, t.work)
				c.Add(perf.IntALU, t.work*2)
				c.Add(perf.Branch, t.work/2)
				return c
			},
		}.with,
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
		loop: func(g *grm.Genotypes) taskLoop {
			// Standardizing into the block plan is part of the timed run.
			return grmLoop.with(grm.NewBlocks(g, 64))
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
		loop: perTask[nnbaseData, struct{}, counted[genome.Seq]]{
			n: func(d nnbaseData) int { return len(d.reads) },
			task: func(d nnbaseData, _ struct{}, i int) counted[genome.Seq] {
				called, macs := d.model.Basecall(d.reads[i].Signal, d.cfg)
				return counted[genome.Seq]{called, macs}
			},
			digest: func(r counted[genome.Seq]) (uint64, uint64) { return seqDigest(r.answer), r.work },
			unit:   "MACs",
			extra:  []string{"macs", "bases"},
			tally: func(_ nnbaseData, _ int, r counted[genome.Seq]) tally {
				return tally{work: r.work, sums: [3]int64{int64(r.work), int64(len(r.answer))}}
			},
			counters: func(t tally) (c perf.Counters) {
				// Dense FP matrix arithmetic end to end.
				c.Add(perf.VecOp, t.work)
				c.Add(perf.FloatOp, t.work/4)
				c.Add(perf.Load, t.work/8)
				c.Add(perf.Store, t.work/32)
				c.Add(perf.Branch, t.work/256)
				return c
			},
		}.with,
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
		loop: perTask[[]*pileup.Region, struct{}, counted[[]pileup.Counts]]{
			n: func(regions []*pileup.Region) int { return len(regions) },
			task: func(regions []*pileup.Region, _ struct{}, i int) counted[[]pileup.Counts] {
				counts, lookups := pileup.CountRegion(regions[i])
				return counted[[]pileup.Counts]{counts, uint64(lookups)}
			},
			digest: func(r counted[[]pileup.Counts]) (uint64, uint64) {
				h := foldInt(digest.Seed, len(r.answer))
				for i := range r.answer {
					c := &r.answer[i]
					for s := 0; s < 2; s++ {
						for base := 0; base < 4; base++ {
							h = digest.Word(h, uint64(c.Base[s][base]))
						}
						h = digest.Word(h, uint64(c.Ins[s]))
						h = digest.Word(h, uint64(c.Del[s]))
					}
				}
				return h, r.work
			},
			unit:  "read lookups",
			extra: []string{"read_lookups", "depth"},
			tally: func(_ []*pileup.Region, _ int, r counted[[]pileup.Counts]) tally {
				t := tally{work: r.work, sums: [3]int64{int64(r.work)}}
				for p := range r.answer {
					t.sums[1] += int64(r.answer[p].Depth())
				}
				return t
			},
			counters: func(t tally) (c perf.Counters) {
				// Random access into alignment records dominates; per
				// counted base the original parses CIGAR state, decodes
				// packed bases and updates counters (~25 instructions in
				// htslib-based code).
				depth := uint64(t.sums[1])
				c.Add(perf.Load, depth*7)
				c.Add(perf.Store, depth*2)
				c.Add(perf.IntALU, depth*11)
				c.Add(perf.Branch, depth*5)
				c.Add(perf.Other, t.work)
				return c
			},
		}.with,
		tasks: pileupTasks,
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
		loop: perTask[nnvariantData, struct{}, []nnvariant.Call]{
			n: func(d nnvariantData) int { return len(d.tasks) },
			task: func(d nnvariantData, _ struct{}, i int) []nnvariant.Call {
				t := d.tasks[i]
				calls := make([]nnvariant.Call, len(t.Candidates))
				for c, pos := range t.Candidates {
					calls[c] = d.model.Predict(nnvariant.BuildTensor(t.Counts, pos))
				}
				return calls
			},
			digest: func(calls []nnvariant.Call) (uint64, uint64) { return callsDigest(calls), uint64(len(calls)) },
			unit:   "MACs",
			extra:  []string{"calls", "macs"},
			tally: func(d nnvariantData, _ int, calls []nnvariant.Call) tally {
				macs := d.model.MACsPerCall() * uint64(len(calls))
				return tally{work: macs, sums: [3]int64{int64(len(calls)), int64(macs)}}
			},
			counters: func(t tally) (c perf.Counters) {
				c.Add(perf.VecOp, t.work)
				c.Add(perf.FloatOp, t.work/3)
				c.Add(perf.Load, t.work/8)
				c.Add(perf.Store, t.work/32)
				c.Add(perf.Branch, t.work/128)
				return c
			},
		}.with,
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

// arena is the worker of the kernels whose state is an arena from the
// run's pool.
func arena[D any](_ D, pool *scratch.Pool, w int) *scratch.Arena { return pool.Worker(w) }

// fmiChunk is fmi's task: a fixed run of consecutive reads, a few
// batch windows deep, so each task runs through its worker's engine
// with the lanes full while claiming tasks keeps the load balanced.
const fmiChunk = 4 * fmindex.BatchWidth

// smemChunk is fmi's worker state and its task's answer: one lock-step
// engine, and what it found in the chunk of reads it last searched.
type smemChunk struct {
	engine  *fmindex.BatchEngine
	smems   []fmindex.SMEM // grouped by read, in the engine's completion order
	spans   [][2]int       // read r's SMEMs are smems[spans[r][0]:spans[r][1]]
	lookups []uint64       // read r's Occ lookups
	total   uint64         // the chunk's Occ lookups
}

// search runs reads through the engine, copying out each read's SMEMs,
// which the engine keeps only until its lane takes the next read. The
// fault trip-point is the task loop's, so there is no admit hook, and
// without one Run cannot fail.
func (c *smemChunk) search(reads []genome.Seq) {
	c.smems, c.total = c.smems[:0], 0
	c.spans = slices.Grow(c.spans[:0], len(reads))[:len(reads)]
	c.lookups = slices.Grow(c.lookups[:0], len(reads))[:len(reads)]
	_ = c.engine.Run(reads, 19, 1, nil, func(r int, smems []fmindex.SMEM, lookups uint64) {
		c.spans[r] = [2]int{len(c.smems), len(c.smems) + len(smems)}
		c.lookups[r], c.total = lookups, c.total+lookups
		c.smems = append(c.smems, smems...)
	})
}

// grmLoop is grm's task loop over one matrix's blocks. The paper's
// work unit is the output element and the kernel is regular, so the
// run keeps one TaskStats sample, every block adding into it.
var grmLoop = perTask[*grm.Blocks, struct{}, grmBlock]{
	n: (*grm.Blocks).Len,
	task: func(b *grm.Blocks, _ struct{}, i int) grmBlock {
		rows, cols, macs := b.Compute(i)
		return grmBlock{b, rows, cols, macs}
	},
	digest: func(r grmBlock) (uint64, uint64) {
		h := digest.Seed
		for i := r.rows[0]; i < r.rows[1]; i++ {
			for _, v := range r.b.Matrix[i*r.b.N+r.cols[0] : i*r.b.N+r.cols[1]] {
				h = foldFloat(h, v)
			}
		}
		return h, r.macs
	},
	unit:    "multiply-accumulates",
	extra:   []string{"flops"},
	samples: func(*grm.Blocks) int { return 1 },
	tally: func(_ *grm.Blocks, _ int, r grmBlock) tally {
		// The second sum is the entries the block stores: its own and,
		// off the diagonal, their mirror.
		entries := (r.rows[1] - r.rows[0]) * (r.cols[1] - r.cols[0])
		if r.rows != r.cols {
			entries *= 2
		}
		return tally{work: r.macs, sums: [3]int64{int64(r.macs), int64(entries)}}
	},
	counters: func(t tally) (c perf.Counters) {
		// Dense FMA-dominated multiply: mostly vector FP with streaming
		// loads (high retiring fraction, near-zero branches).
		c.Add(perf.VecOp, t.work)
		c.Add(perf.FloatOp, t.work/4)
		c.Add(perf.Load, t.work/4)
		c.Add(perf.Store, uint64(t.sums[1])/8)
		c.Add(perf.Branch, t.work/64)
		return c
	},
}

// grmBlock is one computed block of b.Matrix and its work.
type grmBlock struct {
	b          *grm.Blocks
	rows, cols [2]int
	macs       uint64
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
