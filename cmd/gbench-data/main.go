// Command gbench-data generates the suite's synthetic datasets as
// standard files: a reference FASTA, a donor-haplotype truth VCF, and
// short- and long-read FASTQ, reproducible from a seed.
//
// Usage:
//
//	gbench-data -out ./data -ref-len 100000 -short-reads 1000 -long-reads 100 -seed 42
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/genome"
	"repro/internal/readsim"
	"repro/internal/simio"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status: 0 on success,
// 1 when a file cannot be written, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gbench-data", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		outDir     = fs.String("out", "data", "output directory")
		refLen     = fs.Int("ref-len", 100_000, "reference length in bases")
		shortReads = fs.Int("short-reads", 1000, "number of short reads")
		longReads  = fs.Int("long-reads", 100, "number of long reads")
		coverage   = fs.Float64("coverage", 0, "if > 0, emit donor coverage reads instead of -short-reads")
		seed       = fs.Int64("seed", 42, "generator seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := generate(*outDir, *refLen, *shortReads, *longReads, *coverage, *seed, stdout); err != nil {
		fmt.Fprintln(stderr, "gbench-data:", err)
		return 1
	}
	return 0
}

func generate(outDir string, refLen, nShort, nLong int, coverage float64, seed int64, stdout io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	ref := genome.NewReference(rng, "chr1", refLen, 0.1)
	donor := genome.PlantVariants(rng, ref, 0.001, 0.0002)

	// Reference FASTA.
	if err := writeFile(outDir, "reference.fa", func(f *os.File) error {
		return simio.WriteFasta(f, []simio.FastaRecord{{Name: ref.Name, Seq: ref.Seq}})
	}); err != nil {
		return err
	}

	// Truth VCF for the donor.
	var vcf []simio.VCFRecord
	for _, v := range donor.Variants {
		gt := simio.HomAlt
		if v.Het {
			gt = simio.Het
		}
		rec := simio.VCFRecord{Chrom: ref.Name, Pos: v.Pos, Qual: 60, Genotype: gt}
		switch v.Kind {
		case genome.SNV:
			rec.Ref, rec.Alt = v.Ref, v.Alt
		case genome.Insertion:
			anchor := ref.Seq[v.Pos : v.Pos+1]
			rec.Ref = anchor
			rec.Alt = append(anchor.Clone(), v.Alt...)
		case genome.Deletion:
			anchorPos := v.Pos - 1
			if anchorPos < 0 {
				continue
			}
			anchor := ref.Seq[anchorPos : anchorPos+1]
			rec.Pos = anchorPos
			rec.Ref = append(anchor.Clone(), v.Ref...)
			rec.Alt = anchor
		}
		vcf = append(vcf, rec)
	}
	if err := writeFile(outDir, "truth.vcf", func(f *os.File) error {
		return simio.WriteVCF(f, "donor", vcf)
	}); err != nil {
		return err
	}

	// Short reads.
	sim := readsim.New(seed + 1)
	var short []readsim.Read
	if coverage > 0 {
		short = sim.CoverageReads(donor, coverage, readsim.DefaultShort(), "sr")
	} else {
		short = sim.ShortReads(donor.Haps[0], 0, nShort, readsim.DefaultShort(), "sr")
	}
	if err := writeFile(outDir, "short_reads.fastq", func(f *os.File) error {
		recs := make([]simio.FastqRecord, len(short))
		for i, r := range short {
			recs[i] = simio.FastqRecord{Name: r.Name, Seq: r.Seq, Qual: r.Qual}
		}
		return simio.WriteFastq(f, recs)
	}); err != nil {
		return err
	}

	// Long reads.
	long := sim.LongReads(donor.Haps[0], 0, nLong, readsim.DefaultLong(), "lr")
	if err := writeFile(outDir, "long_reads.fastq", func(f *os.File) error {
		recs := make([]simio.FastqRecord, len(long))
		for i, r := range long {
			recs[i] = simio.FastqRecord{Name: r.Name, Seq: r.Seq, Qual: r.Qual}
		}
		return simio.WriteFastq(f, recs)
	}); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "wrote %s: reference (%d bp), %d truth variants, %d short reads, %d long reads\n",
		outDir, refLen, len(vcf), len(short), len(long))
	return nil
}

func writeFile(dir, name string, fn func(*os.File) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
