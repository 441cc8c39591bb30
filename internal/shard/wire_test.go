package shard

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestMsgRoundTrip(t *testing.T) {
	in := Msg{
		Type: MsgAssign, Worker: "w1", Job: 42, Kernel: "spoa",
		Size: "small", Seed: 7, Shard: 3, Attempt: 2,
		Tasks: EncodeTasks([]int{1, 2, 9}), NumTasks: 40, LeaseMs: 2000,
		Digests: []uint64{0xdeadbeef, 0x1234}, Ops: 99, ElapsedNs: 12345, Err: "boom",
	}
	var buf bytes.Buffer
	if err := writeMsg(&buf, &in); err != nil {
		t.Fatalf("writeMsg: %v", err)
	}
	var out Msg
	if err := readMsg(&buf, &out); err != nil {
		t.Fatalf("readMsg: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestReadMsgRejectsBadFrames(t *testing.T) {
	// Zero length.
	if err := readMsg(bytes.NewReader([]byte{0, 0, 0, 0}), &Msg{}); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// Oversized length.
	if err := readMsg(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}), &Msg{}); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Truncated body.
	var buf bytes.Buffer
	if err := writeMsg(&buf, &Msg{Type: MsgPull, Worker: "w"}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if err := readMsg(bytes.NewReader(trunc), &Msg{}); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestMsgStreamIndependentFrames(t *testing.T) {
	// Frames are self-contained gob streams: decoding must work from
	// any frame boundary, not just the first.
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := writeMsg(&buf, &Msg{Type: MsgHeartbeat, Worker: "w", Job: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		var m Msg
		if err := readMsg(&buf, &m); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.Job != uint64(i) {
			t.Fatalf("frame %d decoded Job=%d", i, m.Job)
		}
	}
}

func TestEncodeDecodeTasks(t *testing.T) {
	cases := [][]int{
		nil,
		{0},
		{5},
		{0, 1, 2, 3, 4},
		{10, 20, 1000000, 1000001},
		{3, 1, 2}, // unsorted input comes back sorted
	}
	for _, in := range cases {
		got, err := DecodeTasks(EncodeTasks(in))
		if err != nil {
			t.Fatalf("decode(%v): %v", in, err)
		}
		want := append([]int(nil), in...)
		if len(want) > 1 {
			for i := 1; i < len(want); i++ {
				for k := i; k > 0 && want[k] < want[k-1]; k-- {
					want[k], want[k-1] = want[k-1], want[k]
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("decode(%v) = %v", in, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("decode(%v) = %v", in, got)
			}
		}
	}
}

func TestEncodeTasksDoesNotMutateInput(t *testing.T) {
	in := []int{9, 3, 7}
	EncodeTasks(in)
	if in[0] != 9 || in[1] != 3 || in[2] != 7 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestEncodeTasksCompact(t *testing.T) {
	// A dense run should cost ~1 byte per task after the first.
	tasks := make([]int, 1000)
	for i := range tasks {
		tasks[i] = 5000 + i
	}
	if n := len(EncodeTasks(tasks)); n > 1100 {
		t.Fatalf("dense run of 1000 tasks encoded to %d bytes", n)
	}
}

func TestDecodeTasksCorrupt(t *testing.T) {
	for name, b := range map[string][]byte{
		"lone continuation byte (invalid uvarint)": {0x80},
		"zero delta repeats task 5":                {5, 0},
		"delta carries the index past MaxInt":      append([]byte{1}, binary.AppendUvarint(nil, math.MaxInt)...),
	} {
		if tasks, err := DecodeTasks(b); err == nil {
			t.Errorf("%s: accepted as %v", name, tasks)
		}
	}
}

func TestPartitionCoversRangeExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Edge cases first (no tasks, more shards than tasks, one shard),
	// then random shapes.
	edges := [][2]int{{0, 1}, {0, 5}, {3, 8}, {16, 16}, {17, 16}, {40, 1}}
	for trial := 0; trial < 20+len(edges); trial++ {
		n := 1 + rng.Intn(500)
		nshards := 1 + rng.Intn(20)
		if trial < len(edges) {
			n, nshards = edges[trial][0], edges[trial][1]
		}
		job := rng.Uint64()
		parts := Partition(job, n, nshards)
		if len(parts) != nshards {
			t.Fatalf("got %d shards, want %d", len(parts), nshards)
		}
		seen := make([]bool, n)
		lo, hi := n, 0
		for s, tasks := range parts {
			lo, hi = min(lo, len(tasks)), max(hi, len(tasks))
			prev := -1
			for _, task := range tasks {
				if task < 0 || task >= n {
					t.Fatalf("shard %d holds out-of-range task %d (n=%d)", s, task, n)
				}
				if task <= prev {
					t.Fatalf("shard %d not ascending: %v", s, tasks)
				}
				if seen[task] {
					t.Fatalf("task %d assigned twice", task)
				}
				seen[task] = true
				prev = task
			}
		}
		for task, ok := range seen {
			if !ok {
				t.Fatalf("task %d unassigned (job=%d n=%d shards=%d)", task, job, n, nshards)
			}
		}
		if hi-lo > 1 {
			t.Fatalf("shard sizes range %d..%d, want a spread of at most one (job=%d n=%d shards=%d)", lo, hi, job, n, nshards)
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	a := Partition(77, 300, 8)
	b := Partition(77, 300, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (job, n, nshards) produced different partitions")
	}
	c := Partition(78, 300, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different jobs produced identical partitions (vanishingly unlikely)")
	}
}

func TestPartitionSpread(t *testing.T) {
	parts := Partition(1, 1600, 16)
	empty := 0
	for _, tasks := range parts {
		if len(tasks) == 0 {
			empty++
		}
	}
	if empty > 0 {
		t.Fatalf("%d of 16 shards empty over 1600 tasks; virtual nodes too few", empty)
	}
}

func TestFingerprintOrderSensitive(t *testing.T) {
	a := Fingerprint([]uint64{1, 2, 3})
	b := Fingerprint([]uint64{3, 2, 1})
	if a == b {
		t.Fatal("fingerprint ignores order")
	}
	if Fingerprint(nil) != Fingerprint([]uint64{}) {
		t.Fatal("empty fingerprints differ")
	}
}
