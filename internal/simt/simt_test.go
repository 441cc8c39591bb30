package simt

import (
	"math"
	"testing"
)

func TestOccupancyFullBlocks(t *testing.T) {
	d := TitanXp()
	// 256-thread blocks, no shared mem, light registers: thread-limited,
	// 2048/256 = 8 blocks = 64 warps = full occupancy.
	occ := d.Occupancy(Launch{ThreadsPerBlock: 256, RegistersPerThread: 32})
	if occ != 1 {
		t.Errorf("occupancy = %v, want 1", occ)
	}
}

func TestOccupancySharedMemLimited(t *testing.T) {
	d := TitanXp()
	// 48KB shared mem per block: only 2 blocks fit in 96KB.
	occ := d.Occupancy(Launch{ThreadsPerBlock: 256, SharedMemPerBlock: 48 << 10})
	want := float64(2*8) / 64 // 2 blocks * 8 warps / 64 max warps
	if math.Abs(occ-want) > 1e-9 {
		t.Errorf("occupancy = %v, want %v", occ, want)
	}
}

func TestOccupancyRegisterLimited(t *testing.T) {
	d := TitanXp()
	// 128 regs/thread * 1024 threads = 128K regs per block > 64K: zero blocks fit.
	occ := d.Occupancy(Launch{ThreadsPerBlock: 1024, RegistersPerThread: 128})
	if occ != 0 {
		t.Errorf("occupancy = %v, want 0", occ)
	}
}

func TestWarpEfficiencyFullMask(t *testing.T) {
	var m Metrics
	w := NewWarp(&m, TitanXp())
	w.Exec(10)
	if e := m.WarpEfficiency(); e != 1 {
		t.Errorf("full-mask warp efficiency %v", e)
	}
	if e := m.BranchEfficiency(); e != 1 {
		t.Errorf("no-branch branch efficiency %v", e)
	}
}

func TestPartialWarp(t *testing.T) {
	var m Metrics
	w := NewPartialWarp(&m, TitanXp(), 16)
	w.Exec(4)
	if e := m.WarpEfficiency(); e != 0.5 {
		t.Errorf("16-lane warp efficiency %v, want 0.5", e)
	}
}

func TestExecPredicated(t *testing.T) {
	var m Metrics
	w := NewWarp(&m, TitanXp())
	w.ExecPredicated(1, func(lane int) bool { return lane%2 == 0 })
	if m.WarpEfficiency() != 1 {
		t.Errorf("predicated warp efficiency %v, want 1", m.WarpEfficiency())
	}
	if m.NonPredicatedWarpEfficiency() != 0.5 {
		t.Errorf("non-predicated efficiency %v, want 0.5", m.NonPredicatedWarpEfficiency())
	}
}

func TestGlobalLoadCoalesced(t *testing.T) {
	var m Metrics
	w := NewWarp(&m, TitanXp())
	// Contiguous 4-byte accesses: 32 lanes * 4B = 128B = 4 sectors.
	w.GlobalLoad(func(lane int) uint64 { return uint64(lane) * 4 }, 4)
	if e := m.GlobalLoadEfficiency(); e != 1 {
		t.Errorf("coalesced load efficiency %v, want 1", e)
	}
	if m.MemTransactions != 4 {
		t.Errorf("transactions = %d, want 4", m.MemTransactions)
	}
}

func TestGlobalLoadStrided(t *testing.T) {
	var m Metrics
	w := NewWarp(&m, TitanXp())
	// 128-byte strides: every lane touches its own sector.
	w.GlobalLoad(func(lane int) uint64 { return uint64(lane) * 128 }, 4)
	want := float64(32*4) / float64(32*32)
	if e := m.GlobalLoadEfficiency(); math.Abs(e-want) > 1e-9 {
		t.Errorf("strided load efficiency %v, want %v", e, want)
	}
}

func TestGlobalStoreEfficiency(t *testing.T) {
	var m Metrics
	w := NewWarp(&m, TitanXp())
	w.GlobalStore(func(lane int) uint64 { return uint64(lane) * 4 }, 4)
	if e := m.GlobalStoreEfficiency(); e != 1 {
		t.Errorf("store efficiency %v", e)
	}
}

func TestSMUtilizationLowersWithSyncAndLowOccupancy(t *testing.T) {
	d := TitanXp()
	var busy Metrics
	w := NewWarp(&busy, d)
	for i := 0; i < 1000; i++ {
		w.Exec(10)
	}
	var stalled Metrics
	w2 := NewWarp(&stalled, d)
	for i := 0; i < 1000; i++ {
		w2.Exec(10)
		w2.Sync(50)
		w2.GlobalLoad(func(lane int) uint64 { return uint64(lane) * 512 }, 4)
	}
	uBusy := busy.SMUtilization(d, 0.9)
	uStalled := stalled.SMUtilization(d, 0.3)
	if uBusy <= uStalled {
		t.Errorf("busy util %v should exceed stalled util %v", uBusy, uStalled)
	}
	if uBusy <= 0.95 {
		t.Errorf("pure-compute utilization %v too low", uBusy)
	}
}

func TestMaskCount(t *testing.T) {
	if FullMask.Count() != 32 {
		t.Error("FullMask count")
	}
	if Mask(0xF).Count() != 4 {
		t.Error("mask count")
	}
}

func TestOccupancyMonotonicity(t *testing.T) {
	d := TitanXp()
	// More shared memory per block can never raise occupancy.
	prev := 2.0
	for smem := 4 << 10; smem <= 96<<10; smem *= 2 {
		occ := d.Occupancy(Launch{ThreadsPerBlock: 256, SharedMemPerBlock: smem})
		if occ > prev {
			t.Fatalf("occupancy rose from %v to %v as shared memory grew", prev, occ)
		}
		prev = occ
	}
	// More registers per thread can never raise occupancy.
	prev = 2.0
	for regs := 16; regs <= 256; regs *= 2 {
		occ := d.Occupancy(Launch{ThreadsPerBlock: 256, RegistersPerThread: regs})
		if occ > prev {
			t.Fatalf("occupancy rose from %v to %v as registers grew", prev, occ)
		}
		prev = occ
	}
}

func TestOccupancyBounds(t *testing.T) {
	d := TitanXp()
	for threads := 32; threads <= 1024; threads *= 2 {
		for _, smem := range []int{0, 8 << 10, 48 << 10} {
			occ := d.Occupancy(Launch{ThreadsPerBlock: threads, SharedMemPerBlock: smem, RegistersPerThread: 32})
			if occ < 0 || occ > 1 {
				t.Fatalf("occupancy %v out of [0,1]", occ)
			}
		}
	}
}
