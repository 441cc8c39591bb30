// Package signalsim simulates Oxford-Nanopore raw signal, substituting
// for the FAST5 reads from the Nanopore WGS Consortium dataset that the
// abea kernel consumes in the paper. A deterministic 6-mer pore model
// maps sequence context to an expected current level; event simulation
// adds Gaussian noise, dwell-time variation and the ~2x k-mer
// over-segmentation that motivates ABEA's adaptive band.
package signalsim

import (
	"math"
	"math/rand"

	"repro/internal/genome"
)

// K is the pore-model context length: the current level depends on the
// K bases occupying the pore, matching Nanopolish's 6-mer model.
const K = 6

// PoreModel maps each of the 4^K k-mers to a Gaussian current level.
type PoreModel struct {
	Mean []float32 // expected current (pA) per k-mer code
	Stdv []float32 // per-k-mer noise level
}

// NewPoreModel builds a deterministic synthetic pore model. Levels are
// spread over the realistic 60-130 pA range; a k-mer's level is a fixed
// hash of its code so the model is reproducible without data files and
// distinct k-mers are well-separated on average.
func NewPoreModel() *PoreModel {
	n := 1 << (2 * K)
	m := &PoreModel{
		Mean: make([]float32, n),
		Stdv: make([]float32, n),
	}
	for code := 0; code < n; code++ {
		h := splitmix64(uint64(code))
		frac := float64(h>>11) / float64(1<<53)
		m.Mean[code] = float32(60 + 70*frac)
		h2 := splitmix64(h)
		frac2 := float64(h2>>11) / float64(1<<53)
		m.Stdv[code] = float32(1.0 + 2.0*frac2)
	}
	return m
}

// splitmix64 is the SplitMix64 mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Level returns the model mean and standard deviation for the k-mer of s
// starting at i.
func (m *PoreModel) Level(s genome.Seq, i int) (mean, stdv float32) {
	code := genome.KmerCode(s, i, K)
	return m.Mean[code], m.Stdv[code]
}

// Event is one segmented signal event: the mean current observed while a
// k-mer context occupied the pore.
type Event struct {
	Mean   float32 // observed mean current (pA)
	Stdv   float32 // observed within-event noise
	Length int     // number of raw samples in the event
}

// Config parameterizes event simulation.
type Config struct {
	// OversegmentationRate is the probability that a k-mer emits a second
	// (split) event; the paper notes k-mers are over-represented up to 2x.
	OversegmentationRate float64
	// SkipRate is the probability a k-mer emits no event (fast
	// translocation missed by the segmenter).
	SkipRate float64
	// NoiseScale multiplies the model stdv when drawing event means.
	NoiseScale float64
	// MeanDwell is the mean raw-sample count per event.
	MeanDwell float64
}

// DefaultConfig mirrors typical R9.4 behaviour.
func DefaultConfig() Config {
	return Config{
		OversegmentationRate: 0.4,
		SkipRate:             0.05,
		NoiseScale:           1.0,
		MeanDwell:            10,
	}
}

// Simulate generates the event sequence produced by reading seq through
// the pore. The returned events correspond to successive k-mers of seq
// with skips and splits applied.
func Simulate(rng *rand.Rand, model *PoreModel, seq genome.Seq, cfg Config) []Event {
	if len(seq) < K {
		return nil
	}
	nk := len(seq) - K + 1
	events := make([]Event, 0, nk+nk/2)
	for i := 0; i < nk; i++ {
		if rng.Float64() < cfg.SkipRate {
			continue
		}
		mean, stdv := model.Level(seq, i)
		emit := 1
		if rng.Float64() < cfg.OversegmentationRate {
			emit = 2
		}
		for e := 0; e < emit; e++ {
			observed := float64(mean) + rng.NormFloat64()*float64(stdv)*cfg.NoiseScale
			dwell := 1 + int(rng.ExpFloat64()*cfg.MeanDwell)
			events = append(events, Event{
				Mean:   float32(observed),
				Stdv:   float32(math.Abs(rng.NormFloat64()*0.3) + 0.5),
				Length: dwell,
			})
		}
	}
	return events
}

// SignalRead couples a sequence with its simulated events, the unit of
// work for the abea kernel.
type SignalRead struct {
	Name   string
	Seq    genome.Seq // basecalled/reference sequence to align events to
	Events []Event
}

// SimulateReads draws n signal reads from random positions of src. Read
// lengths are uniform in [minLen, maxLen].
func SimulateReads(rng *rand.Rand, model *PoreModel, src genome.Seq, n, minLen, maxLen int, cfg Config) []SignalRead {
	if maxLen > len(src) {
		maxLen = len(src)
	}
	if minLen > maxLen {
		minLen = maxLen
	}
	reads := make([]SignalRead, 0, n)
	for i := 0; i < n; i++ {
		length := minLen
		if maxLen > minLen {
			length += rng.Intn(maxLen - minLen + 1)
		}
		if length < K {
			continue
		}
		pos := rng.Intn(len(src) - length + 1)
		sub := src[pos : pos+length]
		reads = append(reads, SignalRead{
			Name:   "signal-" + itoa(i),
			Seq:    sub,
			Events: Simulate(rng, model, sub, cfg),
		})
	}
	return reads
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// RawSignal renders the per-sample current trace for seq: every event
// contributes Length samples drawn around its mean — the input format
// of the nn-base basecalling kernel (Bonito consumes raw samples, not
// segmented events).
func RawSignal(rng *rand.Rand, model *PoreModel, seq genome.Seq, cfg Config) []float32 {
	events := Simulate(rng, model, seq, cfg)
	var out []float32
	for _, ev := range events {
		for s := 0; s < ev.Length; s++ {
			out = append(out, ev.Mean+float32(rng.NormFloat64())*ev.Stdv)
		}
	}
	return out
}

// LogProbMatch returns the log-probability of observing eventMean given
// the model distribution of the k-mer at seq[i..i+K). This is the
// scoring function ABEA evaluates per DP cell (32-bit float
// log-likelihood per the paper).
func (m *PoreModel) LogProbMatch(eventMean float32, seq genome.Seq, i int) float32 {
	code := genome.KmerCode(seq, i, K)
	mu := m.Mean[code]
	sd := m.Stdv[code]
	z := (eventMean - mu) / sd
	// log N(x; mu, sd) = -0.5 z^2 - log(sd) - 0.5 log(2 pi)
	const logSqrt2Pi = 0.9189385332046727
	return -0.5*z*z - float32(math.Log(float64(sd))) - logSqrt2Pi
}
