package scenario

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/obs"
	"repro/internal/scratch"
)

// testOverrides are the small-scale overrides that keep the
// differential suite fast.
var testOverrides = map[string]Params{
	"variantcalling": {
		"ref_len":    4_000,
		"coverage":   12,
		"min_recall": 0.2, // tiny genome: recall is noisy, identity is the contract
	},
	"methylation":  {"seq_len": 500, "molecules": 4},
	"metagenomics": {"total_reads": 60},
}

// testParams returns a registered scenario's full parameter set with
// testOverrides applied, the way benchmark/ passes a whole clone.
func testParams(t *testing.T, name string) Params {
	t.Helper()
	def := Get(name)
	if def == nil {
		t.Fatalf("scenario %q not registered", name)
	}
	p := def.Params.Clone()
	for k, v := range testOverrides[name] {
		p[k] = v
	}
	return p
}

// Pipelines are pure given their params, so tests share one build per
// scenario (the metagenomics FM-index build is the expensive part).
var builtPipes = map[string]*Pipeline{}

func buildCached(t *testing.T, name string) *Pipeline {
	t.Helper()
	if p, ok := builtPipes[name]; ok {
		return p
	}
	p := buildFor(t, name, testParams(t, name))
	builtPipes[name] = p
	return p
}

func buildFor(t *testing.T, name string, p Params) *Pipeline {
	t.Helper()
	pipe, err := Get(name).Build(p)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return pipe
}

// TestRegistryDeclarationsMatchConstruction pins that each definition's
// declarative stage list agrees with what Build actually constructs:
// the first entry names the source, the rest must equal the pipeline's
// stage names in order. Def.Params is the other declaration: a Build
// given only the overrides must make the pipeline a Build given the
// whole overridden set makes.
func TestRegistryDeclarationsMatchConstruction(t *testing.T) {
	names := Names()
	if len(names) < 3 {
		t.Fatalf("want >=3 registered scenarios, have %v", names)
	}
	for _, name := range names {
		def := Get(name)
		pipe := buildCached(t, name)
		var got []string
		for _, st := range pipe.Stages {
			got = append(got, st.Name)
		}
		want := def.Stages[1:]
		if len(got) != len(want) {
			t.Fatalf("%s: declared stages %v, built %v", name, def.Stages, got)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: declared stages %v, built %v", name, def.Stages, got)
			}
		}
		full, err := RunStaged(context.Background(), name, pipe, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		partial, err := RunStaged(context.Background(), name, buildFor(t, name, testOverrides[name]), Options{})
		if err != nil {
			t.Fatalf("%s from overrides alone: %v", name, err)
		}
		if partial.Digest != full.Digest {
			t.Errorf("%s: digest %#x from overrides alone, %#x from the whole parameter set", name, partial.Digest, full.Digest)
		}
	}
}

// TestBuildRejectsUnknownParam: an override Def.Params does not
// declare is a typo, not a parameter; Build names it and the valid
// ones instead of running at the defaults.
func TestBuildRejectsUnknownParam(t *testing.T) {
	for _, name := range Names() {
		_, err := Get(name).Build(Params{"reflen": 12000})
		if err == nil {
			t.Fatalf("%s: Build accepted the undeclared parameter \"reflen\"", name)
		}
		for _, want := range []string{`"reflen"`, "seed"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error does not name %s: %v", name, want, err)
			}
		}
	}
}

// TestFusedDigestMatchesStaged is the differential-twin contract: for
// every registered scenario the fused streaming executor must produce
// a digest bit-identical to the staged reference, across repeated runs
// and a shared warm pool, and — both executors count in the one shared
// stage step — the same source and per-stage In/Out item counts.
func TestFusedDigestMatchesStaged(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			pipe := buildCached(t, name)
			pool := scratch.NewPool()
			opt := Options{Pool: pool}
			ctx := context.Background()

			staged, err := RunStaged(ctx, name, pipe, opt)
			if err != nil {
				t.Fatalf("staged: %v", err)
			}
			if staged.Digest == 0 || len(staged.Final) == 0 {
				t.Fatalf("staged produced no output: digest %#x, %d items", staged.Digest, len(staged.Final))
			}
			for rep := 0; rep < 2; rep++ {
				fused, err := RunFused(ctx, name, pipe, opt)
				if err != nil {
					t.Fatalf("fused rep %d: %v", rep, err)
				}
				if fused.Digest != staged.Digest {
					t.Fatalf("rep %d: fused digest %#x != staged %#x (%d vs %d items)",
						rep, fused.Digest, staged.Digest, len(fused.Final), len(staged.Final))
				}
				if fused.Source != staged.Source {
					t.Fatalf("rep %d: fused source emitted %d items, staged %d", rep, fused.Source, staged.Source)
				}
				for si, fs := range fused.Stages {
					if ss := staged.Stages[si]; fs.Name != ss.Name || fs.In != ss.In || fs.Out != ss.Out {
						t.Fatalf("rep %d: stage %d fused %s in=%d out=%d, staged %s in=%d out=%d",
							rep, si, fs.Name, fs.In, fs.Out, ss.Name, ss.In, ss.Out)
					}
				}
			}
			if staged.Source == 0 {
				t.Fatal("staged recorded no source emissions")
			}
		})
	}
}

// TestPooledStateFollowsThePipelinesIndex: a scratch.Pool keys pooled
// state by slot alone and outlives a pipeline, so a pool carried from
// one metagenomics build to the next (another seed: another pan-genome,
// another index) still holds the first build's smem engines. Searching
// the old index returns wrong seeds without failing, so every run on
// the carried pool must digest like the same run on a fresh pool.
func TestPooledStateFollowsThePipelinesIndex(t *testing.T) {
	ctx := context.Background()
	carried := scratch.NewPool()
	seen := map[uint64]bool{}
	for _, seed := range []float64{31, 77} {
		p := testParams(t, "metagenomics")
		p["seed"] = seed
		pipe := buildFor(t, "metagenomics", p)
		for _, ex := range []struct {
			mode string
			run  func(context.Context, string, *Pipeline, Options) (*Result, error)
		}{{"fused", RunFused}, {"staged", RunStaged}} {
			want, err := ex.run(ctx, "metagenomics", pipe, Options{Pool: scratch.NewPool()})
			if err != nil {
				t.Fatalf("seed %v, %s on a fresh pool: %v", seed, ex.mode, err)
			}
			got, err := ex.run(ctx, "metagenomics", pipe, Options{Pool: carried})
			if err != nil {
				t.Fatalf("seed %v, %s on the carried pool: %v", seed, ex.mode, err)
			}
			if got.Digest != want.Digest {
				t.Fatalf("seed %v, %s: digest %#x on the carried pool, %#x on a fresh one",
					seed, ex.mode, got.Digest, want.Digest)
			}
			seen[want.Digest] = true
		}
	}
	if len(seen) != 2 {
		t.Fatalf("want one digest per seed, have %d: the two builds do not differ", len(seen))
	}
}

// TestMetagenomicsMallocsPerItem gates the per-item allocation cost of
// a warm fused run at the registered scale. What is left per read is
// the emitted SeededRead and its seed copy, boxing, LocateAll's result
// and the sort; the smem search itself allocates nothing (measured 22
// per item; it was 2,670 on the allocating reference walk).
func TestMetagenomicsMallocsPerItem(t *testing.T) {
	ctx := context.Background()
	pipe := buildFor(t, "metagenomics", Get("metagenomics").Params.Clone())
	opt := Options{Pool: scratch.NewPool()}
	if _, err := RunFused(ctx, "metagenomics", pipe, opt); err != nil { // warm the pool
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunFused(ctx, "metagenomics", pipe, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perItem := float64(after.Mallocs-before.Mallocs) / float64(res.Source)
	if res.Source != 600 || perItem > 40 {
		t.Fatalf("%d source items, %.1f mallocs per item; want 600 items at <= 40", res.Source, perItem)
	}
	t.Logf("%.1f mallocs per source item", perItem)
}

// TestDigestStableAcrossWorkerWidths pins that worker count is pure
// throughput: 1-worker and wide runs of both executors agree.
func TestDigestStableAcrossWorkerWidths(t *testing.T) {
	for _, name := range Names() {
		pipe := buildCached(t, name)
		ctx := context.Background()
		narrow, err := RunFused(ctx, name, pipe, Options{Workers: 1, QueueCap: 1})
		if err != nil {
			t.Fatalf("%s narrow: %v", name, err)
		}
		wide, err := RunFused(ctx, name, pipe, Options{Workers: 4, QueueCap: 32})
		if err != nil {
			t.Fatalf("%s wide: %v", name, err)
		}
		if narrow.Digest != wide.Digest {
			t.Fatalf("%s: digest depends on worker width: %#x vs %#x", name, narrow.Digest, wide.Digest)
		}
	}
}

// TestVariantCallingDigestTierInvariant: the fused variantcalling
// digest folds every genotype call, so it must be the same on the
// detected SIMD tier and with the tier forced off. At ref_len 12000
// (the benchmark's scale) the phmm stage runs both lane passes and
// redoes about a tenth of its pairs in float64 read lanes, so this is
// the redo's check on a real pipeline.
func TestVariantCallingDigestTierInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs variantcalling twice at benchmark scale")
	}
	p := Get("variantcalling").Params.Clone()
	p["ref_len"] = 12_000
	pipe := buildFor(t, "variantcalling", p)
	run := func() uint64 {
		res, err := RunFused(context.Background(), "variantcalling", pipe, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	tier := cpufeat.String()
	got := run()
	defer cpufeat.ForceForTest("off")()
	if want := run(); got != want {
		t.Fatalf("digest %#x at %s, %#x at GBENCH_SIMD=off", got, tier, want)
	}
}

// TestStageStatsAccounting pins the progress accounting on a clean
// run: stage in/out counts are conserved through the chain and the
// occupancy/overlap numbers stay in range.
func TestStageStatsAccounting(t *testing.T) {
	name := "variantcalling"
	pipe := buildCached(t, name)
	o := obs.NewObserver()
	ctx := obs.With(context.Background(), o)
	res, err := RunFused(ctx, name, pipe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source == 0 {
		t.Fatal("no source emissions recorded")
	}
	if res.Stages[0].In != res.Source {
		t.Fatalf("stage 0 received %d of %d source items", res.Stages[0].In, res.Source)
	}
	for i := 1; i < len(res.Stages); i++ {
		if res.Stages[i].In != res.Stages[i-1].Out {
			t.Fatalf("stage %q received %d items but %q emitted %d",
				res.Stages[i].Name, res.Stages[i].In, res.Stages[i-1].Name, res.Stages[i-1].Out)
		}
	}
	if int64(len(res.Final)) != res.Stages[len(res.Stages)-1].Out {
		t.Fatalf("final %d items, last stage emitted %d", len(res.Final), res.Stages[len(res.Stages)-1].Out)
	}
	for _, ss := range res.Stages {
		if ss.Occupancy < 0 || ss.Occupancy > 1.001 {
			t.Fatalf("stage %q occupancy %.3f out of range", ss.Name, ss.Occupancy)
		}
	}
	if res.Overlap < 0 || res.Overlap > float64(len(res.Stages)) {
		t.Fatalf("overlap ratio %.2f out of range", res.Overlap)
	}
	// Spans were exported for every stage plus the run root.
	recs := o.Tracer.Spans()
	want := map[string]bool{}
	for _, st := range pipe.Stages {
		want["scenario/"+name+"/"+st.Name] = false
	}
	want["scenario/"+name+"/fused"] = false
	for _, r := range recs {
		if _, ok := want[r.Name]; ok {
			want[r.Name] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("no span recorded for %s (got %d spans)", n, len(recs))
		}
	}
}

// TestAcceptFailureSurfaces pins that a failing acceptance check turns
// into an executor error.
func TestAcceptFailureSurfaces(t *testing.T) {
	p := testParams(t, "variantcalling")
	p["min_recall"] = 1.1 // impossible floor
	pipe := buildFor(t, "variantcalling", p)
	if _, err := RunFused(context.Background(), "variantcalling", pipe, Options{}); err == nil {
		t.Fatal("impossible acceptance floor did not fail the run")
	}
}

// TestRegionBinnerMatchesTwoPassBinning pins the streaming binner
// against the examples' original two-pass loop.
func TestRegionBinnerMatchesTwoPassBinning(t *testing.T) {
	p := testParams(t, "variantcalling")
	pipe := buildFor(t, "variantcalling", p)
	// Count reads per region through the pipeline's own bin stage by
	// running just the source + binner via RunStaged over a trimmed
	// pipeline.
	trimmed := &Pipeline{
		Source: pipe.Source,
		Stages: pipe.Stages[:1],
		Fold: func(d *Digest, v any) {
			rr := v.(*RegionReads)
			d.Int(rr.Index)
			d.Int(len(rr.Reads))
		},
	}
	res, err := RunStaged(context.Background(), "binner", trimmed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	perRegion := map[int]int{}
	total := 0
	lastIdx := -1
	for _, v := range res.Final {
		rr := v.(*RegionReads)
		if rr.Index <= lastIdx {
			t.Fatalf("regions out of order: %d after %d", rr.Index, lastIdx)
		}
		lastIdx = rr.Index
		perRegion[rr.Index] += len(rr.Reads)
		total += len(rr.Reads)
	}
	if int64(total) != res.Source {
		t.Fatalf("binner dropped reads: %d in, %d out", res.Source, total)
	}
	for idx, n := range perRegion {
		if n <= 0 {
			t.Fatalf("region %d emitted empty", idx)
		}
	}
}

// TestParamsHelpers covers the Params accessors.
func TestParamsHelpers(t *testing.T) {
	p := Params{"a": 2.6, "b": -1}
	if p.Int("a") != 3 {
		t.Fatal("Params.Int")
	}
	if p.Get("b") != -1 {
		t.Fatal("Params.Get")
	}
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, `"missing"`) {
				t.Fatalf("Get of an undeclared name: panic %q does not name it", msg)
			}
		}()
		p.Get("missing")
	}()
	c := p.Clone()
	c["a"] = 9
	if p["a"] != 2.6 {
		t.Fatal("Clone aliases the original")
	}
}

// TestValidateRejectsMalformedPipelines covers pipeline validation.
func TestValidateRejectsMalformedPipelines(t *testing.T) {
	src := func(ctx context.Context, emit func(any) error) error { return nil }
	fn := func(ctx context.Context, w *Worker, v any, emit func(any) error) error { return nil }
	fold := func(d *Digest, v any) {}
	cases := []*Pipeline{
		nil,
		{Stages: []Stage{{Name: "a", Fn: fn}}, Fold: fold},                                   // no source
		{Source: src, Fold: fold},                                                            // no stages
		{Source: src, Stages: []Stage{{Name: "a", Fn: fn}}},                                  // no fold
		{Source: src, Stages: []Stage{{Fn: fn}}, Fold: fold},                                 // unnamed stage
		{Source: src, Stages: []Stage{{Name: "a"}}, Fold: fold},                              // no Fn
		{Source: src, Fold: fold, Stages: []Stage{{Name: "a", Fn: fn}, {Name: "a", Fn: fn}}}, // dup name
		{Source: src, Fold: fold, Stages: []Stage{
			{Name: "wide", Fn: fn, Workers: 4},
			{Name: "stateful", Fn: fn, Flush: func(ctx context.Context, w *Worker, emit func(any) error) error { return nil }},
		}}, // stateful stage below a wide one
	}
	for i, p := range cases {
		if _, err := RunFused(context.Background(), fmt.Sprintf("bad%d", i), p, Options{}); err == nil {
			t.Fatalf("case %d: malformed pipeline accepted", i)
		}
	}
}
