package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Executor runs one kernel's tasks for the fabric. Tasks reports the
// kernel's task count at a size without building anything — the count
// is a pure function of size, and it is all the coordinator needs to
// partition a job, so the coordinator never holds a dataset. Prepare
// builds the dataset — deterministic in (size, seed), exactly like
// core.Benchmark.Prepare — and reports the task count it built, which
// must equal Tasks(size); RunTask executes one task and folds its
// complete output (scores, consensus bases, counts, likelihood bits,
// ...) into a 64-bit digest plus a work-unit count. Tasks arrive in
// any order and any subset, and a retry runs them again: whatever
// state an executor reuses between RunTask calls must not leak from
// one task into the next. Digests are the fabric's correctness
// currency: the merged digest vector of a distributed run must equal,
// bit for bit, the vector a single process produces, no matter which
// workers ran which shards or how many times faults forced
// rescheduling.
//
// Implementations live next to the kernels (internal/core registers
// one per shardable kernel); this package only defines the contract so
// the coordinator, workers, and tests stay kernel-agnostic.
type Executor interface {
	Tasks(size string) (ntasks int, err error)
	Prepare(size string, seed int64) (ntasks int, err error)
	RunTask(ctx context.Context, task int) (digest, ops uint64, err error)
}

var (
	execMu      sync.RWMutex
	execFactory = map[string]func() Executor{}
)

// RegisterExecutor installs a factory for a kernel's shard executor;
// called from init functions in the packages that own the kernels.
func RegisterExecutor(kernel string, factory func() Executor) {
	execMu.Lock()
	defer execMu.Unlock()
	execFactory[kernel] = factory
}

// NewExecutor builds a fresh executor for the kernel.
func NewExecutor(kernel string) (Executor, error) {
	execMu.RLock()
	f := execFactory[kernel]
	execMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("shard: no executor registered for kernel %q", kernel)
	}
	return f(), nil
}

// HasExecutor reports whether the kernel can run on the fabric.
func HasExecutor(kernel string) bool {
	execMu.RLock()
	defer execMu.RUnlock()
	return execFactory[kernel] != nil
}

// ExecutorKernels lists the registered kernels, sorted.
func ExecutorKernels() []string {
	execMu.RLock()
	defer execMu.RUnlock()
	out := make([]string, 0, len(execFactory))
	for k := range execFactory {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
