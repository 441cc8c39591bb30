package main

import (
	"context"
	"fmt"
	"time"
)

// WorkloadSpec names a workload and says why it exists; BENCHMARK.json
// carries the same two strings.
type WorkloadSpec struct {
	Name, Why string
	New       func() Workload
}

var workloadSpecs = []WorkloadSpec{
	{"suite-small", "default gbench run, 12 kernels Small at P threads: one phmm region is ~85% of the wall, so parallel dispatch and the core driver decide it",
		func() Workload { return &suiteSmall{} }},
	{"kernels-large-t1", "eleven non-phmm kernels Large, resident data, 1 thread, kernel region only: kernels are all the work; parallel, scenario and shard are bypassed",
		func() Workload { return &kernelsLarge{} }},
	{"scenario-variantcalling", "fused bin-dbg-phmm-genotype pipeline over few heavy items: stage overlap, backpressure and dbg/phmm imbalance decide the wall",
		func() Workload { return &scenarioWL{scen: "variantcalling"} }},
	{"scenario-metagenomics", "fused smem-classify pipeline over 3000 light items: per-item executor cost, allocation and GC are visible here and nowhere else",
		func() Workload { return &scenarioWL{scen: "metagenomics"} }},
	{"dist-2", "five shardable kernels Large over a fresh 2-worker loopback fabric: partition, frames, leases and duplicated Prepare do most of the work",
		func() Workload { return &dist2{} }},
}

func findWorkload(name string) *WorkloadSpec {
	for i := range workloadSpecs {
		if workloadSpecs[i].Name == name {
			return &workloadSpecs[i]
		}
	}
	return nil
}

// phmmPinnedSeed is the dataset seed suite-small gives phmm whatever
// -seed says: gbench's own default. At Small, 30 regions each have a
// 2% chance of being pathological, so 45% of seeds draw a straggler
// (7-8 s) and 55% draw none (0.2-0.5 s). The workload exists to
// measure the straggler; the other eleven kernels follow -seed.
const phmmPinnedSeed = 42

// kernelSpans turns RunSuite's announced transitions into child spans
// of parent and returns each kernel's whole span and, for fabric jobs,
// the part after "distributing" (RunJob).
func kernelSpans(t *Trace, parent int, events []KernelEvent) (whole, job map[string]float64) {
	whole, job = map[string]float64{}, map[string]float64{}
	var id, jobID int // RunSuite runs kernels one after another: one open span at a time
	for _, e := range events {
		switch {
		case e.Phase == "running":
			id, jobID = t.rec.StartAt(parent, "kernel:"+e.Kernel, e.At), 0
		case id == 0:
		case e.Phase == "distributing":
			jobID = t.rec.StartAt(id, "shard.RunJob:"+e.Kernel, e.At)
		default:
			if jobID != 0 {
				job[e.Kernel] = t.rec.EndAt(jobID, e.At)
			}
			whole[e.Kernel] = t.rec.EndAt(id, e.At)
			id = 0
		}
	}
	return whole, job
}

// ---- suite-small ----

type suiteSmall struct{ kernels []Kernel }

func (w *suiteSmall) Setup(_ context.Context, r *Run) (err error) {
	if r.Smoke {
		w.kernels, err = suiteKernels("dbg", "chain")
	} else {
		w.kernels, err = suiteKernels()
	}
	return err
}

func (w *suiteSmall) Pass(ctx context.Context, r *Run, t *Trace) {
	opts := SuiteOpts{
		Kernels: w.kernels, Seed: r.Seed, Threads: r.P,
		Pin: map[string]int64{"phmm": phmmPinnedSeed}, Obs: t.Obs(),
	}
	var events []KernelEvent
	if t != nil {
		opts.Events = func(e KernelEvent) { events = append(events, e) }
	}
	sp := t.Start("core.RunSuite")
	outs := runSuite(ctx, opts)
	wall := t.End(sp)
	for _, o := range outs {
		r.Op(o.Kernel, o.OK, o.Signature, o.Err)
	}
	if t == nil {
		return
	}
	whole, _ := kernelSpans(t, sp, events)
	inKernels := 0.0
	for _, o := range outs {
		inKernels += whole[o.Kernel]
		if !o.OK {
			continue
		}
		r.Layer[o.Module+".run_s"] = o.RunS
		r.Layer[o.Module+".prepare_s"] = whole[o.Kernel] - o.RunS
		r.Layer[o.Module+".task_max_to_mean"] = o.MaxToMean
	}
	r.Layer["core.driver_self_s"] = wall - inKernels
}

func (w *suiteSmall) Teardown() {}

// Extras measures thread scaling per kernel: Prepare once, the kernel
// region at 1 thread, then at P.
func (w *suiteSmall) Extras(ctx context.Context, r *Run, t *Trace) {
	for _, k := range w.kernels {
		seed := r.Seed
		if k.Name == "phmm" {
			seed = phmmPinnedSeed
		}
		sp := t.Start("Prepare:" + k.Name)
		k.Prepare(false, seed)
		t.End(sp)
		speedup(ctx, r, t, k, 0)
		k.Release()
	}
}

// speedup records parallel.speedup.<mod> = t1/tP. t1 is measured here
// unless the caller already has it.
func speedup(ctx context.Context, r *Run, t *Trace, k Kernel, t1 float64) {
	if t1 == 0 {
		sp := t.Start("RunCtx(1):" + k.Name)
		one, err := k.Run(ctx, 1)
		t.End(sp)
		r.Op(k.Name, err == nil, one.Signature, errText(err))
		t1 = one.RunS
	}
	sp := t.Start(fmt.Sprintf("RunCtx(%d):%s", r.P, k.Name))
	many, err := k.Run(ctx, r.P)
	t.End(sp)
	r.Op(k.Name, err == nil, many.Signature, errText(err))
	if err == nil && many.RunS > 0 && t1 > 0 {
		r.Layer["parallel.speedup."+k.Module] = t1 / many.RunS
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return firstLine(err.Error())
}

// ---- kernels-large-t1 ----

type kernelsLarge struct {
	kernels []Kernel
	t1      map[string]float64 // traced pass's single-thread times, for Extras
}

func (w *kernelsLarge) Setup(ctx context.Context, r *Run) (err error) {
	if r.Smoke {
		w.kernels, err = suiteKernels("dbg", "chain")
	} else {
		// phmm is left out: at Large its one straggler region would be
		// 75% of the pass (16 s). suite-small and scenario-variantcalling
		// cover it.
		w.kernels, err = suiteKernels("fmi", "bsw", "dbg", "chain", "spoa", "abea", "grm", "nn-base", "pileup", "nn-variant", "kmer-cnt")
	}
	if err != nil {
		return err
	}
	for _, k := range w.kernels {
		start := time.Now()
		k.Prepare(!r.Smoke, r.Seed)
		r.Layer[k.Module+".prepare_s"] = time.Since(start).Seconds()
	}
	w.Pass(ctx, r, nil) // warm-up
	return nil
}

func (w *kernelsLarge) Pass(ctx context.Context, r *Run, t *Trace) {
	if t != nil {
		w.t1 = map[string]float64{}
	}
	for _, k := range w.kernels {
		sp := t.Start("RunCtx(1):" + k.Name)
		kr, err := k.Run(ctx, 1)
		t.End(sp)
		r.Op(k.Name, err == nil, kr.Signature, errText(err))
		if t != nil && err == nil {
			w.t1[k.Name] = kr.RunS
			r.Layer[k.Module+".run_s"] = kr.RunS
			r.Layer[k.Module+".task_max_to_mean"] = kr.MaxToMean
		}
	}
}

func (w *kernelsLarge) Extras(ctx context.Context, r *Run, t *Trace) {
	for _, k := range w.kernels {
		if t1 := w.t1[k.Name]; t1 > 0 {
			speedup(ctx, r, t, k, t1)
		}
	}
}

func (w *kernelsLarge) Teardown() {
	for _, k := range w.kernels {
		k.Release()
	}
}

// ---- scenario-variantcalling, scenario-metagenomics ----

type scenarioWL struct {
	scen   string
	sc     *Scenario
	fusedS float64 // traced fused run, for Extras
}

// scenarioParams are the overrides on the registered definition.
// metagenomics follows -seed (species mixture and reads): 3000 light
// items average out, cpu_s moved 8% across ten seeds, no more than
// across ten runs of one seed. variantcalling keeps the definition's
// own seeds whatever -seed says: its wall is the phmm stage over ~20
// assembled regions whose haplotype counts are heavy-tailed, and with
// the reads following -seed cpu_s spread 12% and wall_s 17% across ten
// seeds against a 6% noise floor, a new donor more still. That spread
// says nothing about the program and would set the bound for every
// workload.
func scenarioParams(scen string, seed int64, smoke bool) map[string]float64 {
	switch scen {
	case "variantcalling":
		p := map[string]float64{"ref_len": 12000}
		if smoke {
			// A 2 kb genome plants about five variants; recall over so few is
			// noise (the scenario's own tests lower the floor too).
			p["ref_len"], p["coverage"], p["min_recall"] = 2000, 12, 0
		}
		return p
	default:
		p := map[string]float64{"total_reads": 3000, "seed": float64(seed), "read_seed": float64(seed + 1)}
		if smoke {
			p["total_reads"] = 50
		}
		return p
	}
}

func (w *scenarioWL) Setup(ctx context.Context, r *Run) (err error) {
	w.sc, err = buildScenario(w.scen, scenarioParams(w.scen, r.Seed, r.Smoke))
	if err != nil {
		return err
	}
	r.Layer["scenario.build_s"] = w.sc.BuildS
	w.Pass(ctx, r, nil) // warm-up: fills the shared scratch.Pool
	return nil
}

func (w *scenarioWL) Pass(ctx context.Context, r *Run, t *Trace) {
	var before Usage
	if t != nil {
		before = readUsage() // stops the world: traced pass only
	}
	sp := t.Start("scenario.RunFused")
	res, err := w.sc.Run(ctx, false, t.Obs())
	t.End(sp)
	r.Op(w.scen, err == nil, res.Digest, errText(err))
	if t == nil || err != nil {
		return
	}
	c := before.until(readUsage())
	w.fusedS = res.ElapsedS
	r.Layer["scenario.source_items"] = res.Source
	r.Layer["scenario.outputs"] = res.Outputs
	r.Layer["scenario.overlap"] = res.Overlap
	r.Layer["scenario.mallocs_per_item"] = float64(c.Mallocs) / res.Source
	for _, st := range res.Stages {
		r.Layer["scenario.stage."+st.Name+".busy_s"] = st.BusyS
		r.Layer["scenario.stage."+st.Name+".occupancy"] = st.Occupancy
		r.Layer["scenario.stage."+st.Name+".queue_peak"] = st.QueuePeak
	}
}

// Extras runs the staged twin once on the same pipeline and pool; its
// digest must equal the fused one.
func (w *scenarioWL) Extras(ctx context.Context, r *Run, t *Trace) {
	sp := t.Start("scenario.RunStaged")
	res, err := w.sc.Run(ctx, true, t.Obs())
	t.End(sp)
	r.Op(w.scen, err == nil, res.Digest, errText(err))
	if err == nil && w.fusedS > 0 {
		r.Layer["scenario.staged_s"] = res.ElapsedS
		r.Layer["scenario.fused_over_staged"] = w.fusedS / res.ElapsedS
	}
}

func (w *scenarioWL) Teardown() { w.sc = nil }

// ---- dist-2 ----

type dist2 struct {
	kernels []Kernel
	refs    map[string]LocalRef
	localS  float64
}

const distWorkers = 2

func (w *dist2) Setup(ctx context.Context, r *Run) (err error) {
	if r.Smoke {
		w.kernels, err = suiteKernels("chain")
	} else {
		// phmm has a shard executor too, but it calls the scalar
		// phmm.EvaluateRegion and the hedge re-runs the straggler: one
		// job takes 34.6 s against 6.4 s in-process. A finding for a
		// later issue, not a timed pass.
		w.kernels, err = suiteKernels("bsw", "dbg", "chain", "spoa", "pileup")
	}
	if err != nil {
		return err
	}
	w.refs = map[string]LocalRef{}
	for _, k := range w.kernels {
		ref, err := localRef(ctx, k.Name, !r.Smoke, r.Seed)
		r.Op(k.Name, err == nil, ref.Fingerprint, errText(err))
		w.refs[k.Name] = ref
		w.localS += ref.ElapsedS
	}
	return nil
}

func (w *dist2) Pass(ctx context.Context, r *Run, t *Trace) {
	sp := t.Start("shard.start")
	fab, err := startFabric(ctx, distWorkers)
	startS := t.End(sp)
	if err != nil {
		for _, k := range w.kernels {
			r.Op(k.Name, false, "", "fabric: "+errText(err))
		}
		return
	}
	opts := SuiteOpts{Kernels: w.kernels, Large: !r.Smoke, Seed: r.Seed, Threads: 1, Fabric: fab, Obs: t.Obs()}
	var events []KernelEvent
	if t != nil {
		opts.Events = func(e KernelEvent) { events = append(events, e) }
	}
	sp = t.Start("core.RunSuite")
	outs := runSuite(ctx, opts)
	t.End(sp)
	suiteSpan := sp
	sp = t.Start("shard.close")
	closeErr := fab.Close()
	t.End(sp)
	for _, o := range outs {
		switch {
		case o.OK && o.Dist == nil:
			r.Op(o.Kernel, false, "", "ran in-process, not on the fabric")
		case o.OK && closeErr != nil:
			r.Op(o.Kernel, false, "", errText(closeErr))
		case o.OK:
			r.Op(o.Kernel, true, o.Dist.Fingerprint, "")
		default:
			r.Op(o.Kernel, false, "", o.Err)
		}
	}
	if t == nil {
		return
	}
	whole, job := kernelSpans(t, suiteSpan, events)
	var jobS, execS, prepS float64
	sums := map[string]float64{}
	for _, o := range outs {
		if !o.OK || o.Dist == nil {
			continue
		}
		r.Layer["shard.job_s."+o.Module] = job[o.Kernel]
		r.Layer["shard.exec_s."+o.Module] = o.Dist.ExecS
		jobS += job[o.Kernel]
		execS += o.Dist.ExecS
		prepS += whole[o.Kernel] - job[o.Kernel]
		sums["dispatched"] += o.Dist.Dispatched
		sums["completed"] += o.Dist.Completed
		sums["rescheduled"] += o.Dist.Rescheduled
		sums["hedged"] += o.Dist.Hedged
		sums["duplicates"] += o.Dist.Duplicates
	}
	r.Layer["shard.start_s"] = startS
	r.Layer["shard.coord_prepare_s"] = prepS
	for _, k := range []string{"dispatched", "rescheduled", "hedged", "duplicates"} {
		r.Layer["shard."+k] = sums[k]
	}
	if jobS > 0 {
		r.Layer["shard.wait_frac"] = 1 - execS/(distWorkers*jobS)
		r.Layer["shard.dist_over_local"] = jobS / w.localS
	}
	if sums["dispatched"] > 0 {
		r.Layer["shard.useful_frac"] = sums["completed"] / sums["dispatched"]
	}
}

// Extras times the task-list codec over the partitions the jobs of a
// pass really use: a fresh coordinator numbers its jobs from 1.
func (w *dist2) Extras(_ context.Context, r *Run, t *Trace) {
	sp := t.Start("shard.EncodeTasks+DecodeTasks")
	defer t.End(sp)
	var ns, n float64
	for i, k := range w.kernels {
		tasks := w.refs[k.Name].Tasks
		if tasks == 0 {
			continue
		}
		per, err := encodeNsPerTask(uint64(i+1), tasks, distShards)
		r.Op("codec:"+k.Name, err == nil, "", errText(err))
		ns += per * float64(tasks)
		n += float64(tasks)
	}
	if n > 0 {
		r.Layer["shard.encode_ns_per_task"] = ns / n
	}
}

func (w *dist2) Teardown() {}
