package benchjson

import (
	"testing"
)

// TestTrendGateOnCommittedHistory pins the gate to the repository's
// own BENCH_HISTORY.ndjson: the motivating specimen for this entire
// subsystem. The PR3->PR5 prefix contains the silent pileup/count
// drift (1.43x -> 1.13x with the packed path itself 18% over its best
// ns/op) that the single-baseline compare gate never flagged — the
// gate must fail on that trajectory. The full history ends with the
// post-fix record, where the packed path is back at a record-low
// ns/op and the residual ratio shrink is baseline-side movement — the
// gate must pass it (warnings allowed, failures not).
func TestTrendGateOnCommittedHistory(t *testing.T) {
	records, dropped, err := ReadHistoryFile("../../BENCH_HISTORY.ndjson")
	if err != nil {
		t.Fatalf("committed history unreadable: %v", err)
	}
	if dropped {
		t.Fatal("committed history has a truncated trailing record")
	}
	if len(records) < 4 {
		t.Fatalf("committed history holds %d records, want PR3..PR5 plus the current PR", len(records))
	}

	// The specimen lives on the one-core host class the history began
	// on. Records from other hosts (PR14's two-core, phmm-only record)
	// start their own trajectories and are judged on their own.
	var oneCore []*Report
	for _, r := range records {
		if hostKeyOf(r) == hostKeyOf(records[0]) {
			oneCore = append(oneCore, r)
		}
	}
	records = oneCore

	find := func(regs []Regression, kernel, pair string) *Regression {
		for i := range regs {
			if regs[i].Kernel == kernel && regs[i].Pair == pair {
				return &regs[i]
			}
		}
		return nil
	}

	// The historical prefix: PR5 is the newest record, judged against
	// PR3 and PR4. pileup/count must fail — that is the drift this PR
	// exists to catch.
	prefix := records[:3]
	if got := prefix[len(prefix)-1].Label; got != "PR5" {
		t.Fatalf("prefix ends at %q, want PR5", got)
	}
	v := TrendGate(prefix, TrendOptions{})
	if find(v.Failures, "pileup", "count") == nil {
		t.Fatalf("gate passed the historical pileup/count drift; failures = %v", v.Failures)
	}

	// The full history: the newest record carries the cutover fix and
	// a record-low packed ns/op, so pileup/count must no longer fail.
	v = TrendGate(records, TrendOptions{})
	if f := find(v.Failures, "pileup", "count"); f != nil {
		t.Fatalf("gate still fails pileup/count after the fix: %v", *f)
	}
	// The residual ratio shrink is real but uncorroborated — it must
	// surface as a warning, not vanish.
	if find(v.Warnings, "pileup", "count") == nil {
		t.Fatalf("baseline-side pileup/count movement not even warned; warnings = %v", v.Warnings)
	}
	// The 1-core measurement host cannot exercise the t4 thread pairs;
	// they must be reported as skipped, not judged.
	for _, pair := range []string{"chain", "grm", "pileup"} {
		found := false
		for _, s := range v.Skipped {
			if s.Kernel == pair && s.Pair == "threads" {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s/threads not skipped on 1-core host; skipped = %v", pair, v.Skipped)
		}
	}
}
