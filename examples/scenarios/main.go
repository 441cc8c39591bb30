// Scenarios: the three registered end-to-end pipelines, at demo scale.
//
//   - variantcalling — the GATK-style short-read path: a donor genome
//     with planted variants is sequenced at 30x; reads stream through
//     region binning, De-Bruijn assembly (dbg kernel), PairHMM scoring
//     (phmm kernel) and genotype calling.
//   - metagenomics — abundance estimation against a pan-genome: a read
//     mixture of known composition streams through SMEM seeding (fmi
//     kernel) and locate-and-vote classification.
//   - methylation — the application ABEA serves in Nanopolish: a CpG
//     island is "sequenced" molecule by molecule through the pore
//     model, and each molecule's signal streams through event
//     simulation and adaptive-banded event-alignment 5mC calling (abea
//     kernel).
//
// The pipelines live in the scenario registry (internal/scenario);
// this example walks it, runs each one fused (streaming,
// stage-overlapped) and staged (run-to-completion reference), and
// shows both agree bit for bit.
//
// Run: go run ./examples/scenarios
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/scenario"
	"repro/internal/scratch"
)

// demoScale overrides each scenario's default parameters so the whole
// walk takes a few seconds.
var demoScale = map[string]scenario.Params{
	"variantcalling": {"ref_len": 12_000},
	// metagenomics: the registry defaults already run in a fraction of a second
	"methylation": {"molecules": 2}, // one methylated, one unmethylated read
}

func main() {
	for _, name := range scenario.Names() {
		if err := run(scenario.Get(name)); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

func run(def *scenario.Def) error {
	pipe, err := def.Build(demoScale[def.Name])
	if err != nil {
		return err
	}
	fmt.Printf("%s: %v\n\n", def.Title, def.Stages)

	opt := scenario.Options{Pool: scratch.NewPool()}
	staged, err := scenario.RunStaged(context.Background(), def.Name, pipe, opt)
	if err != nil {
		return fmt.Errorf("staged: %w", err)
	}
	fused, err := scenario.RunFused(context.Background(), def.Name, pipe, opt)
	if err != nil {
		return fmt.Errorf("fused: %w", err)
	}
	fmt.Print(fused.Table())
	fmt.Printf("staged reference: %.1f ms, digest %016x (match: %v)\n\n",
		float64(staged.Elapsed.Nanoseconds())/1e6, staged.Digest, staged.Digest == fused.Digest)
	fmt.Println(pipe.Summary(fused.Final))
	return nil
}
