package faultinject

import (
	"context"
	"io"
	"math/rand"
	"time"

	"repro/internal/digest"
	"repro/internal/resilience"
)

// WrapReader applies the armed plan's reader faults (truncate, corrupt,
// slow) whose site matches, innermost first in clause order. With no
// plan armed, or no matching clause, r is returned unchanged. Driver
// code wraps its input streams once at open time:
//
//	reads, err := simio.ReadFastqAuto(faultinject.WrapReader("fastq", f))
func WrapReader(site string, r io.Reader) io.Reader {
	return WrapReaderCtx(context.Background(), site, r)
}

// WrapReaderCtx is WrapReader with cooperative cancellation: a slow
// reader's injected sleeps end early (the Read returns ctx.Err()) when
// ctx is cancelled, instead of sleeping through the caller's deadline.
func WrapReaderCtx(ctx context.Context, site string, r io.Reader) io.Reader {
	p := armed.Load()
	if p == nil {
		return r
	}
	return p.WrapReaderCtx(ctx, site, r)
}

// WrapReaderCtx applies p's matching reader faults around r, with slow
// readers honouring ctx cancellation mid-sleep.
func (p *Plan) WrapReaderCtx(ctx context.Context, site string, r io.Reader) io.Reader {
	for i := range p.Faults {
		f := &p.Faults[i]
		if !f.matches(site) {
			continue
		}
		switch f.Kind {
		case KindTruncate, KindCorrupt, KindSlow:
			// Wrapping a stream counts as the clause tripping once.
			p.evals[i].Add(1)
			p.trips[i].Add(1)
		}
		switch f.Kind {
		case KindTruncate:
			r = &truncateReader{r: r, remain: f.Bytes}
		case KindCorrupt:
			// Reads are sequential, so a private seeded rng keeps the
			// corruption pattern deterministic for a given plan.
			r = &corruptReader{
				r:    r,
				prob: f.Prob,
				rng:  rand.New(rand.NewSource(p.Seed ^ int64(digest.Mix64(uint64(i)+0xc0ffee)))),
			}
		case KindSlow:
			r = &slowReader{r: r, ctx: ctx, delay: f.Delay}
		}
	}
	return r
}

// truncateReader simulates a chopped file: it passes through the first
// `remain` bytes and then reports a clean EOF, exactly what a
// mid-transfer-truncated .fastq.gz looks like on disk.
type truncateReader struct {
	r      io.Reader
	remain int64
}

func (t *truncateReader) Read(b []byte) (int, error) {
	if t.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(b)) > t.remain {
		b = b[:t.remain]
	}
	n, err := t.r.Read(b)
	t.remain -= int64(n)
	if t.remain <= 0 && err == nil {
		err = io.EOF
	}
	return n, err
}

// corruptReader flips one random bit per byte with probability prob.
type corruptReader struct {
	r    io.Reader
	prob float64
	rng  *rand.Rand
}

func (c *corruptReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	for i := 0; i < n; i++ {
		if c.rng.Float64() < c.prob {
			b[i] ^= 1 << uint(c.rng.Intn(8))
		}
	}
	return n, err
}

// slowReader sleeps before every Read call, modelling a starved or
// network-backed input stream. The sleep is context-aware: once the
// wrap context is cancelled, Read stops sleeping and reports the
// context error instead of stalling its caller through a deadline.
type slowReader struct {
	r     io.Reader
	ctx   context.Context
	delay time.Duration
}

func (s *slowReader) Read(b []byte) (int, error) {
	if err := resilience.Sleep(s.ctx, s.delay); err != nil {
		return 0, err
	}
	return s.r.Read(b)
}
