package shard

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// FuzzDecodeTasks: whatever arrives in an assignment's Tasks field,
// DecodeTasks either errors or returns strictly ascending non-negative
// indices — an executor is never handed a duplicate or a wrapped-around
// index — and a set it accepts survives EncodeTasks → DecodeTasks
// unchanged. The same bytes read as little-endian uint16 indices drive
// the encoder side: any index list round-trips to its sorted form.
func FuzzDecodeTasks(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		tasks, err := DecodeTasks(raw)
		if err == nil {
			for i, task := range tasks {
				if task < 0 || (i > 0 && task <= tasks[i-1]) {
					t.Fatalf("DecodeTasks(%x) = %v: entry %d is not strictly ascending", raw, tasks, i)
				}
			}
			back, err := DecodeTasks(EncodeTasks(tasks))
			if err != nil || !slices.Equal(back, tasks) {
				t.Fatalf("accepted set %v re-decodes to %v, err %v", tasks, back, err)
			}
		}

		seen := map[int]bool{}
		var in []int
		for i := 0; i+1 < len(raw); i += 2 {
			if v := int(binary.LittleEndian.Uint16(raw[i:])); !seen[v] {
				seen[v] = true
				in = append(in, v)
			}
		}
		want := append([]int(nil), in...)
		sort.Ints(want)
		got, err := DecodeTasks(EncodeTasks(in))
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("round trip of %v = %v, err %v", in, got, err)
		}
	})
}

// FuzzReadMsg feeds readMsg arbitrary byte streams — bad lengths,
// truncated bodies, gob that is not a Msg. It must return (an error or
// a message), never panic, and never allocate on the strength of the
// length header alone. A frame it accepts must survive a
// writeMsg → readMsg round trip, which is what the coordinator and the
// worker do with every field they forward.
func FuzzReadMsg(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var m Msg
		err := readMsg(bytes.NewReader(stream), &m)
		runtime.ReadMemStats(&after)
		// gob sizes what it allocates by the bytes it was given; the
		// slack covers its type machinery on a first decode.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(stream))+1<<20 {
			t.Fatalf("readMsg allocated %d bytes for a %d-byte stream", grew, len(stream))
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeMsg(&buf, &m); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		var back Msg
		if err := readMsg(&buf, &back); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if back.Type != m.Type || back.Job != m.Job || back.Shard != m.Shard || back.NumTasks != m.NumTasks ||
			!bytes.Equal(back.Tasks, m.Tasks) || len(back.Digests) != len(m.Digests) || back.Err != m.Err {
			t.Fatalf("round trip changed the frame:\n in=%+v\nout=%+v", m, back)
		}
	})
}
