package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/shard"
)

// digests runs every task through the one task loop at a thread count
// and folds each task's answer as the shard executor does: the test
// hook that puts the task loop itself into the answer matrix.
func (p *perTask[D, W, R]) digests(ctx context.Context, threads int) ([]uint64, error) {
	out := make([]uint64, p.n(p.data))
	err := p.each(ctx, threads, func(i int, r R) { out[i], _ = p.digest(r) })
	return out, err
}

// taskDigests is digests over a prepared bench; ok is false for
// kmer-cnt, which keeps its own loop and publishes no task digest.
func (b *bench[D]) taskDigests(ctx context.Context, threads int) (digests []uint64, ok bool, err error) {
	if b.def.loop == nil {
		return nil, false, nil
	}
	loop := b.def.loop(b.data).(interface {
		digests(ctx context.Context, threads int) ([]uint64, error)
	})
	digests, err = loop.digests(ctx, threads)
	return digests, true, err
}

type taskDigester interface {
	taskDigests(ctx context.Context, threads int) ([]uint64, bool, error)
}

// answerFingerprints pins shard.Fingerprint of every task-digest
// kernel's per-task digests at Small, seed 42. A change that moves one
// moves an answer: update it only on purpose, and say why.
var answerFingerprints = map[string]uint64{
	"fmi":        0x4b3ec8270d78d519,
	"bsw":        0x9263f99304431f4e,
	"dbg":        0x9be5de2e203b00ec,
	"phmm":       0x7c79c5a2ad857d6c,
	"chain":      0x419f5a0660aca8ac,
	"spoa":       0xf290078f25131fb8,
	"abea":       0x6da799774c4e3ae0,
	"grm":        0x5611db854baee416,
	"nn-base":    0x8f35db841c377698,
	"pileup":     0xba3434eb1644b17e,
	"nn-variant": 0x0e007075a12e7be9,
}

// TestAnswerMatrix: a task digest is the task's answer, so no schedule,
// SIMD tier or executor may move one. For every kernel with a task
// digest, the per-task digest vector at Small, seed 42 is the same on
// the dispatched tier and with GBENCH_SIMD=off; the kernels whose timed
// run is the task loop give it at 1, 2 and 4 threads through that
// loop; a shardable kernel's shard executor (LocalDigests) gives it
// too; and its fingerprint is the pinned one. This is the one threads x
// tier x executor check of the task-digest kernels. The portable
// bodies run once per kernel: under -race they cost several times the
// dispatched ones.
func TestAnswerMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eleven kernels at Small several times over")
	}
	ctx := context.Background()
	tier := cpufeat.String()
	seen := map[string]bool{}
	for _, b := range Benchmarks() {
		name := b.Info().Name
		b.Prepare(Small, 42)
		var want []uint64
		check := func(what string, got []uint64, err error) {
			t.Helper()
			switch {
			case err != nil:
				t.Errorf("%s %s: %v", name, what, err)
			case want == nil:
				want = got
			case !slices.Equal(got, want):
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Errorf("%s %s: %d digests, first difference at task %d (want %d digests)", name, what, len(got), i, len(want))
			}
		}
		// The dispatched tier at every thread count, and the portable
		// bodies once, at the most threads.
		runs := []struct {
			off     bool
			threads int
		}{{false, 1}, {false, 2}, {false, 4}, {true, 4}}
		if name == "phmm" {
			// The one task-digest kernel whose timed run keeps its own
			// loop (it splits straggler regions by thread count): its
			// task loop runs once, on the portable bodies, and its
			// executor stands for the dispatched tier.
			runs = runs[3:]
			runs[0].threads = 1
		}
		if shard.HasExecutor(name) {
			got, _, err := LocalDigests(ctx, name, "small", 42)
			check("executor, "+tier, got, err)
		}
		for _, run := range runs {
			what, restore := tier, func() {}
			if run.off {
				what, restore = "GBENCH_SIMD=off", cpufeat.ForceForTest("off")
			}
			got, ok, err := b.(taskDigester).taskDigests(ctx, run.threads)
			restore()
			if !ok {
				break
			}
			check(fmt.Sprintf("%s, %d threads", what, run.threads), got, err)
		}
		b.Release()
		if want == nil {
			continue
		}
		seen[name] = true
		if fp := shard.Fingerprint(want); fp != answerFingerprints[name] {
			t.Errorf("%s: fingerprint %016x, pinned %016x", name, fp, answerFingerprints[name])
		}
	}
	if len(seen) != len(answerFingerprints) {
		t.Errorf("task-digest kernels %v, pinned %d", seen, len(answerFingerprints))
	}
}

// TestTaskDigestsMoveWithAnswers: a digest that skipped a field would
// let a wrong answer through every matrix. One perturbed abea event
// mean must move that read's digest and no other; one perturbed
// nn-variant recurrent weight must move the digests of the regions
// with candidates.
func TestTaskDigestsMoveWithAnswers(t *testing.T) {
	ctx := context.Background()
	digests := func(b Benchmark) []uint64 {
		t.Helper()
		got, _, err := b.(taskDigester).taskDigests(ctx, 2)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	b, _ := ByName("abea")
	b.Prepare(Small, 42)
	before := digests(b)
	reads := b.(*bench[abeaData]).data.reads
	task := len(reads) / 2
	reads[task].Events[40].Mean += 0.5
	for i, d := range digests(b) {
		if moved := d != before[i]; moved != (i == task) {
			t.Errorf("abea: perturbed read %d, task %d digest moved=%v", task, i, moved)
		}
	}

	b, _ = ByName("nn-variant")
	b.Prepare(Small, 42)
	before = digests(b)
	d := b.(*bench[nnvariantData]).data
	d.model.L2.Bwd.Wh.Data[5] += 0.25
	for i, got := range digests(b) {
		if moved := got != before[i]; moved != (len(d.tasks[i].Candidates) > 0) {
			t.Errorf("nn-variant: region %d (%d candidates) digest moved=%v", i, len(d.tasks[i].Candidates), moved)
		}
	}
}

// TestNNVariantMACAccounting: nn-variant's modelled work is
// MACsPerCall per prediction.
func TestNNVariantMACAccounting(t *testing.T) {
	b, _ := ByName("nn-variant")
	b.Prepare(Small, 42)
	st := mustRun(b, 2)
	perCall := float64(b.(*bench[nnvariantData]).data.model.MACsPerCall())
	if st.Extra["calls"] == 0 || st.Extra["macs"] != st.Extra["calls"]*perCall {
		t.Errorf("calls=%v macs=%v, want macs = calls x %v", st.Extra["calls"], st.Extra["macs"], perCall)
	}
}
