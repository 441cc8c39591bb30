// Command gbench-map maps long reads to a reference: minimizer
// seeding + chaining (the chain kernel) place each read, banded
// Smith-Waterman traceback (the bsw kernel) produces base-level
// CIGARs, and the output is SAM. Input files may be gzipped.
//
// A reads file truncated mid-stream (e.g. an interrupted transfer of a
// .fastq.gz) degrades gracefully: the complete records are mapped and
// a warning notes how much was lost. A truncated reference is fatal —
// mapping against half a genome would silently misplace reads.
//
// Usage:
//
//	gbench-map -ref ref.fa -reads reads.fastq -out out.sam
//	gbench-map -ref ref.fa -reads reads.fastq -faults "truncate:fastq"
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bsw"
	"repro/internal/chain"
	"repro/internal/faultinject"
	"repro/internal/simio"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status: 0 on success
// (a truncated reads file included), 1 when the inputs cannot be read
// or the SAM cannot be written, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gbench-map", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		refPath   = fs.String("ref", "", "reference FASTA (.fa or .fa.gz)")
		readsPath = fs.String("reads", "", "reads FASTQ (.fastq or .fastq.gz)")
		outPath   = fs.String("out", "-", "output SAM path, '-' for stdout")
		kFlag     = fs.Int("k", 15, "minimizer k-mer size")
		wFlag     = fs.Int("w", 10, "minimizer window")
		band      = fs.Int("band", 200, "alignment band width")
		faults    = fs.String("faults", "", `fault plan for the input readers, e.g. "truncate:fastq:0.5"`)
		faultSeed = fs.Int64("fault-seed", 1, "seed for deterministic fault firing")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *refPath == "" || *readsPath == "" {
		fmt.Fprintln(stderr, "gbench-map: -ref and -reads are required")
		return 2
	}
	if *faults != "" {
		plan, err := faultinject.Parse(*faults, *faultSeed)
		if err != nil {
			fmt.Fprintln(stderr, "gbench-map:", err)
			return 2
		}
		faultinject.Arm(plan)
		defer faultinject.Disarm()
	}
	if err := mapReads(*refPath, *readsPath, *outPath, *kFlag, *wFlag, *band, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "gbench-map:", err)
		return 1
	}
	return 0
}

func mapReads(refPath, readsPath, outPath string, k, w, band int, stdout, stderr io.Writer) error {
	rf, err := os.Open(refPath)
	if err != nil {
		return err
	}
	defer rf.Close()
	refs, err := simio.ReadFastaAuto(faultinject.WrapReader("fasta", rf))
	if err != nil {
		// A partial reference is never usable: fail rather than map
		// reads onto a prefix of the genome.
		return err
	}
	if len(refs) == 0 {
		return fmt.Errorf("no reference sequences in %s", refPath)
	}
	ref := refs[0]

	qf, err := os.Open(readsPath)
	if err != nil {
		return err
	}
	defer qf.Close()
	reads, err := simio.ReadFastqAuto(faultinject.WrapReader("fastq", qf))
	if err != nil {
		var se *simio.StreamError
		if !errors.As(err, &se) || len(reads) == 0 {
			return err
		}
		// Truncated reads file: map what decoded cleanly.
		fmt.Fprintf(stderr, "gbench-map: warning: %v; continuing with %d complete read(s)\n", err, len(reads))
	}

	mapper := chain.NewMapper(ref.Seq, k, w, 100)
	ccfg := chain.DefaultConfig()
	params := bsw.DefaultParams()
	params.Band = band
	params.ZDrop = 0

	var alignments []*simio.Alignment
	mapped := 0
	for _, r := range reads {
		maps := mapper.Map(r.Seq, ccfg)
		if len(maps) == 0 {
			continue
		}
		best := maps[0]
		query := r.Seq
		if best.Reverse {
			query = r.Seq.ReverseComplement()
		}
		lo := best.RefStart - 100
		if lo < 0 {
			lo = 0
		}
		hi := best.RefEnd + 100
		if hi > len(ref.Seq) {
			hi = len(ref.Seq)
		}
		tr := bsw.AlignTrace(query, ref.Seq[lo:hi], params)
		if len(tr.Cigar) == 0 {
			continue
		}
		cig := tr.Cigar
		if tr.QBeg > 0 {
			cig = append(simio.Cigar{{Len: tr.QBeg, Op: simio.CigarSoftClip}}, cig...)
		}
		if tail := len(query) - tr.QEnd; tail > 0 {
			cig = append(cig, simio.CigarElem{Len: tail, Op: simio.CigarSoftClip})
		}
		qual := r.Qual
		if best.Reverse {
			qual = make([]byte, len(r.Qual))
			for i, q := range r.Qual {
				qual[len(r.Qual)-1-i] = q
			}
		}
		aln := &simio.Alignment{
			ReadName: r.Name,
			RefName:  ref.Name,
			Pos:      lo + tr.TBeg,
			MapQ:     60,
			Cigar:    cig,
			Seq:      query,
			Qual:     qual,
			Reverse:  best.Reverse,
		}
		if err := aln.Validate(); err != nil {
			continue
		}
		alignments = append(alignments, aln)
		mapped++
	}

	if outPath == "-" {
		err = simio.WriteSAM(stdout, refs, alignments)
	} else {
		err = writeSAMFile(outPath, refs, alignments)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "gbench-map: mapped %d/%d reads\n", mapped, len(reads))
	return nil
}

// writeSAMFile writes the SAM to path. A failed Close is an error: it
// can be the final write, and the file would be a truncated SAM.
func writeSAMFile(path string, refs []simio.FastaRecord, alignments []*simio.Alignment) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := simio.WriteSAM(f, refs, alignments); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
