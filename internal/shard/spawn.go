package shard

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sync"
)

// Fleet is a set of spawned worker processes.
type Fleet struct {
	mu    sync.Mutex
	procs []*exec.Cmd
}

// SpawnWorkers launches n worker processes against addr, each with its
// own ID (w1, w2, ...) and the given fault spec (may be empty).
// command is the worker's argv prefix — cmd/gbench passes its own
// executable and its worker-mode word — to which -addr, -id and the
// fault flags are appended. The processes inherit stderr so
// worker-side fault logs surface in the suite's output; stdout is
// discarded.
func SpawnWorkers(ctx context.Context, command []string, addr string, n int, faults string, faultSeed int64) (*Fleet, error) {
	f := &Fleet{}
	for i := 1; i <= n; i++ {
		args := slices.Concat(command[1:], []string{"-addr", addr, "-id", fmt.Sprintf("w%d", i)})
		if faults != "" {
			args = append(args, "-faults", faults, "-fault-seed", fmt.Sprint(faultSeed))
		}
		cmd := exec.CommandContext(ctx, command[0], args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			f.Stop()
			return nil, fmt.Errorf("shard: starting worker %d: %w", i, err)
		}
		f.mu.Lock()
		f.procs = append(f.procs, cmd)
		f.mu.Unlock()
	}
	return f, nil
}

// Stop kills any still-running workers and reaps them. Workers that
// already exited (cleanly after Shutdown, or abruptly under killworker
// faults) are just reaped; Stop never fails the suite over a worker's
// exit status — the coordinator's counters are the source of truth for
// what happened out there.
func (f *Fleet) Stop() {
	f.mu.Lock()
	procs := f.procs
	f.procs = nil
	f.mu.Unlock()
	for _, cmd := range procs {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
		_ = cmd.Wait()
	}
}

// Wait reaps all workers without killing them, for the clean-shutdown
// path after the coordinator broadcast Shutdown.
func (f *Fleet) Wait() {
	f.mu.Lock()
	procs := f.procs
	f.procs = nil
	f.mu.Unlock()
	for _, cmd := range procs {
		_ = cmd.Wait()
	}
}
