package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// HostStamp says where a result file was measured.
type HostStamp struct {
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	P          int            `json:"p"`
	GoVersion  string         `json:"go_version"`
	OS         string         `json:"os"`
	Arch       string         `json:"arch"`
	SIMD       string         `json:"cpufeat"`
	Kernel     string         `json:"kernel_release"`
	Tunables   map[string]int `json:"tunables"`
}

// threadsP is the one thread count besides 1 that workloads use.
func threadsP() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func hostStamp(tunables map[string]int) HostStamp {
	return HostStamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), P: threadsP(),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		SIMD: simdString(), Kernel: kernelRelease(), Tunables: tunables,
	}
}

var calibSink uint64

// calibrate times a fixed loop owned by the benchmark (about 0.2 s on
// the builder's host): a dependent integer+float chain, then six
// read-modify-write sweeps over 32 MB, more than this process's share
// of any last-level cache. It runs before and after every workload.
// The program under test never touches it, so when it slows down the
// host moved, not the program. The sweeps are there because the noise
// seen on a shared VM was of the kind an arithmetic chain alone never
// feels: every kernel 25-35% slower for twenty seconds, the chain not
// at all. The buffer is garbage on return and collected at once, so a
// workload starts from the heap it would have had without calibration.
func calibrate() float64 {
	buf := make([]uint64, 4<<20)
	for i := range buf {
		buf[i] = uint64(i) // fault the pages in before the clock starts
	}
	start := time.Now()
	x, f := uint64(88172645463325252), 1.0
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = f*0.999999 + float64(x&0xff)*1e-9
	}
	sum := uint64(f)
	for sweep := 0; sweep < 6; sweep++ {
		for i := range buf {
			buf[i] += x
			sum += buf[i]
		}
	}
	elapsed := time.Since(start).Seconds()
	calibSink = sum
	buf = nil
	runtime.GC()
	return elapsed
}

// Usage is a point-in-time reading of the process's cumulative costs.
type Usage struct {
	At      time.Time
	CPU     float64 // user+sys seconds, getrusage(RUSAGE_SELF)
	Alloc   uint64  // runtime.MemStats.TotalAlloc
	Mallocs uint64
	NumGC   uint32
	PauseNs uint64
}

func readUsage() Usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Usage{At: time.Now(), CPU: cpuSeconds(), Alloc: ms.TotalAlloc, Mallocs: ms.Mallocs,
		NumGC: ms.NumGC, PauseNs: ms.PauseTotalNs}
}

// PassCost is what one pass consumed.
type PassCost struct {
	WallS, CPUS, AllocMB float64
	Mallocs              uint64
	GCCycles             uint32
	GCPauseMs            float64
}

func (a Usage) until(b Usage) PassCost {
	return PassCost{
		WallS: b.At.Sub(a.At).Seconds(), CPUS: b.CPU - a.CPU,
		AllocMB:   float64(b.Alloc-a.Alloc) / 1e6,
		Mallocs:   b.Mallocs - a.Mallocs,
		GCCycles:  b.NumGC - a.NumGC,
		GCPauseMs: float64(b.PauseNs-a.PauseNs) / 1e6,
	}
}

// heapSampler records the peak live heap every 50 ms while it runs.
// It reads runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.peak = math.Max(h.peak, float64(sample[0].Value.Uint64())/1e6)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}
