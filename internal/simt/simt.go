// Package simt models SIMT (GPU warp-level) execution, standing in for
// the Nvidia Titan Xp + nvprof measurements behind GenomicsBench's
// Tables IV and V. GPU kernels (abea, nn-base) are written as lane
// programs against WarpCtx; the model tracks, per warp-instruction, the
// active-lane mask, branch uniformity, predication, and global-memory
// coalescing, and derives the same metrics nvprof reports:
//
//   - branch efficiency: fraction of branches whose lanes all agree;
//   - warp execution efficiency: average active lanes per issued
//     warp-instruction;
//   - non-predicated warp efficiency: active lanes not predicated off;
//   - occupancy: resident warps per SM versus the hardware maximum,
//     limited by threads, shared memory and registers;
//   - SM utilization: issue slots not lost to synchronization or
//     unhidden memory latency;
//   - global load/store efficiency: requested bytes over transferred
//     bytes with 32-byte sector coalescing.
package simt

import "math/bits"

// WarpSize is the number of lanes per warp.
const WarpSize = 32

// Device describes GPU per-SM limits, defaulting to a Pascal-class chip
// like the paper's Titan Xp.
type Device struct {
	NumSMs          int
	MaxThreadsPerSM int
	MaxWarpsPerSM   int
	MaxBlocksPerSM  int
	SharedMemPerSM  int // bytes
	RegistersPerSM  int
	MemLatency      float64 // cycles an unhidden global access stalls
	MemMLP          float64 // overlapping outstanding transactions per warp
	SectorSize      int     // coalescing granularity in bytes
}

// TitanXp mirrors the paper's GPU at the granularity the model needs.
func TitanXp() Device {
	return Device{
		NumSMs:          30,
		MaxThreadsPerSM: 2048,
		MaxWarpsPerSM:   64,
		MaxBlocksPerSM:  32,
		SharedMemPerSM:  96 << 10,
		RegistersPerSM:  64 << 10,
		MemLatency:      400,
		MemMLP:          48,
		SectorSize:      32,
	}
}

// Launch describes a kernel launch's per-block resource usage, from
// which occupancy is derived exactly as the CUDA occupancy calculator
// does (minimum over the limiting resources).
type Launch struct {
	ThreadsPerBlock    int
	SharedMemPerBlock  int // bytes
	RegistersPerThread int
}

// Occupancy returns achieved resident-warp occupancy in [0,1].
func (d Device) Occupancy(l Launch) float64 {
	if l.ThreadsPerBlock <= 0 {
		return 0
	}
	warpsPerBlock := (l.ThreadsPerBlock + WarpSize - 1) / WarpSize
	blocksByThreads := d.MaxThreadsPerSM / l.ThreadsPerBlock
	blocks := blocksByThreads
	if d.MaxBlocksPerSM < blocks {
		blocks = d.MaxBlocksPerSM
	}
	if l.SharedMemPerBlock > 0 {
		bySmem := d.SharedMemPerSM / l.SharedMemPerBlock
		if bySmem < blocks {
			blocks = bySmem
		}
	}
	if l.RegistersPerThread > 0 {
		byRegs := d.RegistersPerSM / (l.RegistersPerThread * l.ThreadsPerBlock)
		if byRegs < blocks {
			blocks = byRegs
		}
	}
	if blocks <= 0 {
		return 0
	}
	warps := blocks * warpsPerBlock
	if warps > d.MaxWarpsPerSM {
		warps = d.MaxWarpsPerSM
	}
	return float64(warps) / float64(d.MaxWarpsPerSM)
}

// Mask is a 32-lane active mask.
type Mask uint32

// FullMask has every lane active.
const FullMask Mask = 0xFFFFFFFF

// Count returns the number of active lanes.
func (m Mask) Count() int { return bits.OnesCount32(uint32(m)) }

// Metrics accumulates the nvprof-style counters for a kernel execution.
type Metrics struct {
	WarpInstructions   uint64 // issued warp-instructions
	ActiveLaneSlots    uint64 // sum of active lanes over issued instructions
	UsefulLaneSlots    uint64 // active AND not predicated off
	Branches           uint64 // branch decisions evaluated
	UniformBranches    uint64 // branches where all active lanes agreed
	LoadRequestedBytes uint64 // bytes lanes asked to read
	LoadSectorBytes    uint64 // bytes moved in 32B sectors for reads
	StoreRequested     uint64
	StoreSectorBytes   uint64
	SyncStallCycles    float64 // issue cycles lost at barriers
	MemTransactions    uint64
}

// BranchEfficiency is uniform branches over all branches (1 when no
// branches executed, matching nvprof's treatment).
func (m *Metrics) BranchEfficiency() float64 {
	if m.Branches == 0 {
		return 1
	}
	return float64(m.UniformBranches) / float64(m.Branches)
}

// WarpEfficiency is average active lanes per instruction over WarpSize.
func (m *Metrics) WarpEfficiency() float64 {
	if m.WarpInstructions == 0 {
		return 1
	}
	return float64(m.ActiveLaneSlots) / float64(m.WarpInstructions*WarpSize)
}

// NonPredicatedWarpEfficiency additionally excludes predicated-off lanes.
func (m *Metrics) NonPredicatedWarpEfficiency() float64 {
	if m.WarpInstructions == 0 {
		return 1
	}
	return float64(m.UsefulLaneSlots) / float64(m.WarpInstructions*WarpSize)
}

// GlobalLoadEfficiency is requested over transferred bytes for loads.
func (m *Metrics) GlobalLoadEfficiency() float64 {
	if m.LoadSectorBytes == 0 {
		return 1
	}
	e := float64(m.LoadRequestedBytes) / float64(m.LoadSectorBytes)
	if e > 1 {
		e = 1
	}
	return e
}

// GlobalStoreEfficiency is requested over transferred bytes for stores.
func (m *Metrics) GlobalStoreEfficiency() float64 {
	if m.StoreSectorBytes == 0 {
		return 1
	}
	e := float64(m.StoreRequested) / float64(m.StoreSectorBytes)
	if e > 1 {
		e = 1
	}
	return e
}

// SMUtilization estimates the fraction of issue slots the SM had work,
// given achieved occupancy: unhidden memory latency and barrier stalls
// eat slots; resident warps hide latency proportionally.
func (m *Metrics) SMUtilization(d Device, occupancy float64) float64 {
	issue := float64(m.WarpInstructions)
	if issue == 0 {
		return 0
	}
	residentWarps := occupancy * float64(d.MaxWarpsPerSM)
	if residentWarps < 1 {
		residentWarps = 1
	}
	mlp := d.MemMLP
	if mlp < 1 {
		mlp = 1
	}
	memStall := float64(m.MemTransactions) * d.MemLatency / (residentWarps * mlp)
	// More resident warps also hide barrier latency across blocks.
	syncStall := m.SyncStallCycles / (1 + residentWarps/8)
	total := issue + memStall + syncStall
	return issue / total
}

// WarpCtx is the execution context a lane program runs under. Lane
// programs call its methods to issue instructions; the context tracks
// masks and counters. A WarpCtx is not safe for concurrent use.
type WarpCtx struct {
	M      *Metrics
	active Mask
	device Device
}

// NewWarp creates a context with all lanes active.
func NewWarp(m *Metrics, d Device) *WarpCtx {
	return &WarpCtx{M: m, active: FullMask, device: d}
}

// NewPartialWarp creates a context with only the first n lanes active —
// a tail warp of an under-full block.
func NewPartialWarp(m *Metrics, d Device, n int) *WarpCtx {
	if n >= WarpSize {
		return NewWarp(m, d)
	}
	return &WarpCtx{M: m, active: Mask(uint32(1)<<uint(n) - 1), device: d}
}

// Exec issues n warp-instructions under the current mask.
func (w *WarpCtx) Exec(n int) {
	c := uint64(w.active.Count())
	w.M.WarpInstructions += uint64(n)
	w.M.ActiveLaneSlots += uint64(n) * c
	w.M.UsefulLaneSlots += uint64(n) * c
}

// ExecPredicated issues n warp-instructions where only lanes with
// pred(lane)==true do useful work; all active lanes still occupy issue
// slots (short-branch if-conversion).
func (w *WarpCtx) ExecPredicated(n int, pred func(lane int) bool) {
	var useful uint64
	for lane := 0; lane < WarpSize; lane++ {
		if w.active&(1<<uint(lane)) != 0 && pred(lane) {
			useful++
		}
	}
	c := uint64(w.active.Count())
	w.M.WarpInstructions += uint64(n)
	w.M.ActiveLaneSlots += uint64(n) * c
	w.M.UsefulLaneSlots += uint64(n) * useful
}

// Branch evaluates a per-lane predicate as a real branch: if lanes
// disagree, the warp diverges and then/else bodies run serially under
// reduced masks. Returns after reconverging.
func (w *WarpCtx) Branch(pred func(lane int) bool, then, els func()) {
	w.M.Branches++
	w.M.WarpInstructions++
	c := uint64(w.active.Count())
	w.M.ActiveLaneSlots += c
	w.M.UsefulLaneSlots += c

	var taken Mask
	for lane := 0; lane < WarpSize; lane++ {
		bit := Mask(1) << uint(lane)
		if w.active&bit != 0 && pred(lane) {
			taken |= bit
		}
	}
	notTaken := w.active &^ taken
	if taken == w.active || notTaken == w.active {
		w.M.UniformBranches++
	}
	saved := w.active
	if taken != 0 && then != nil {
		w.active = taken
		then()
	}
	if notTaken != 0 && els != nil {
		w.active = notTaken
		els()
	}
	w.active = saved
}

// GlobalLoad issues one warp-wide global read; addr/size give each
// active lane's request. Coalescing groups requests into SectorSize
// sectors.
func (w *WarpCtx) GlobalLoad(addr func(lane int) uint64, size int) {
	w.globalAccess(addr, size, false)
}

// GlobalStore issues one warp-wide global write.
func (w *WarpCtx) GlobalStore(addr func(lane int) uint64, size int) {
	w.globalAccess(addr, size, true)
}

func (w *WarpCtx) globalAccess(addr func(lane int) uint64, size int, write bool) {
	c := uint64(w.active.Count())
	w.M.WarpInstructions++
	w.M.ActiveLaneSlots += c
	w.M.UsefulLaneSlots += c
	if c == 0 {
		return
	}
	sector := uint64(w.device.SectorSize)
	sectors := make(map[uint64]struct{}, WarpSize)
	var requested uint64
	for lane := 0; lane < WarpSize; lane++ {
		if w.active&(1<<uint(lane)) == 0 {
			continue
		}
		a := addr(lane)
		requested += uint64(size)
		for s := a / sector; s <= (a+uint64(size)-1)/sector; s++ {
			sectors[s] = struct{}{}
		}
	}
	moved := uint64(len(sectors)) * sector
	w.M.MemTransactions += uint64(len(sectors))
	if write {
		w.M.StoreRequested += requested
		w.M.StoreSectorBytes += moved
	} else {
		w.M.LoadRequestedBytes += requested
		w.M.LoadSectorBytes += moved
	}
}

// SharedLoad models a shared-memory access: an issue slot but no global
// transaction.
func (w *WarpCtx) SharedLoad() { w.Exec(1) }

// Sync models __syncthreads(): warps wait at a barrier for the given
// number of cycles of skew.
func (w *WarpCtx) Sync(skewCycles float64) {
	w.M.WarpInstructions++
	c := uint64(w.active.Count())
	w.M.ActiveLaneSlots += c
	w.M.UsefulLaneSlots += c
	w.M.SyncStallCycles += skewCycles
}
