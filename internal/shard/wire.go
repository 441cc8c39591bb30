// Package shard is the suite's fault-tolerant distributed execution
// fabric: a coordinator partitions a kernel's task range into shards
// by a stride rotated by the job ID (Partition: shard sizes differ by
// at most one) and leases them to worker processes over a compact
// local RPC protocol. Robustness is the design center — one liveness
// rule (a worker silent for a whole lease is dead and its shards are
// rescheduled), coordinator-side re-dispatch of a failed shard under a
// bounded attempt budget, and hedged re-dispatch of stragglers on live
// workers with first-result-wins dedup — and the invariant the whole
// package is tested against is *provable recovery*: a run that loses
// workers mid-flight must still produce results bit-identical to the
// single-process path.
//
// The protocol is deliberately small. Workers connect, say Hello, and
// pull shards; the coordinator never dials anyone. Every frame on the
// wire is a 4-byte big-endian length followed by one gob-encoded Msg,
// and a shard's task set travels as delta-encoded varints, so a
// thousand-task shard costs about a kilobyte. docs/DISTRIBUTED.md
// documents the message flow, the liveness rule, and the
// failure-mode matrix.
package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
)

// MsgType discriminates wire messages.
type MsgType uint8

// Wire message types. Workers send Hello once, then loop Pull →
// (Assign | NoWork | Shutdown), interleaving Heartbeat and Result
// fire-and-forget frames; the coordinator only ever writes in response
// to Hello and Pull.
const (
	MsgHello     MsgType = iota + 1 // worker → coordinator: join (Worker)
	MsgHelloAck                     // coordinator → worker: accepted (LeaseMs = window the worker must send a frame within)
	MsgPull                         // worker → coordinator: give me a shard (Worker)
	MsgAssign                       // coordinator → worker: one shard lease (Job..NumTasks)
	MsgNoWork                       // coordinator → worker: nothing to do right now
	MsgShutdown                     // coordinator → worker: drain and exit
	MsgResult                       // worker → coordinator: shard outcome (Job, Shard, Attempt, Digests | Err)
	MsgHeartbeat                    // worker → coordinator: still alive (Worker)
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgPull:
		return "pull"
	case MsgAssign:
		return "assign"
	case MsgNoWork:
		return "no-work"
	case MsgShutdown:
		return "shutdown"
	case MsgResult:
		return "result"
	case MsgHeartbeat:
		return "heartbeat"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Msg is the single wire message shape; which fields are meaningful
// depends on Type. One struct (rather than an interface) keeps the gob
// stream free of per-frame type registration and the protocol trivially
// inspectable.
type Msg struct {
	Type      MsgType
	Worker    string   // Hello, Pull, Heartbeat, Result: sender's worker ID
	Job       uint64   // Assign, Result: job the shard belongs to
	Kernel    string   // Assign: kernel name ("bsw", "spoa", ...)
	Size      string   // Assign: dataset size ("small", "large")
	Seed      int64    // Assign: dataset seed
	Shard     int      // Assign, Result: shard index within the job
	Attempt   int      // Assign, Result: dispatch attempt (1-based)
	Tasks     []byte   // Assign: delta-varint task index set (EncodeTasks)
	NumTasks  int      // Assign: the job's task count; the worker's Prepare must build exactly this many
	LeaseMs   int64    // HelloAck: liveness window in milliseconds
	Digests   []uint64 // Result: per-task digests, in Tasks order
	Ops       uint64   // Result: kernel work units executed in the shard
	ElapsedNs int64    // Result: worker-side shard execution time
	Err       string   // Result: non-empty when the shard failed worker-side
}

// maxFrame bounds one frame; a small-input shard result is a few KB,
// so anything past this is a corrupt or hostile stream.
const maxFrame = 16 << 20

// writeMsg frames m as length-prefixed gob. Each frame carries a
// self-contained gob stream: the per-frame type preamble costs a few
// dozen bytes but makes frames independently decodable, which is what
// lets a coordinator drop a worker mid-frame without poisoning a
// shared decoder state machine.
func writeMsg(w io.Writer, m *Msg) error {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0}) // length placeholder
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return fmt.Errorf("shard: encoding %s frame: %w", m.Type, err)
	}
	b := buf.Bytes()
	n := len(b) - 4
	if n > maxFrame {
		return fmt.Errorf("shard: %s frame of %d bytes exceeds limit", m.Type, n)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(n))
	_, err := w.Write(b)
	return err
}

// readMsg reads one length-prefixed gob frame into m.
func readMsg(r io.Reader, m *Msg) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return fmt.Errorf("shard: bad frame length %d", n)
	}
	// Grow the body as bytes arrive rather than trusting the header: a
	// hostile length costs what the peer really sends, not maxFrame.
	var body bytes.Buffer
	if _, err := io.CopyN(&body, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	*m = Msg{}
	if err := gob.NewDecoder(&body).Decode(m); err != nil {
		return fmt.Errorf("shard: decoding frame: %w", err)
	}
	return nil
}

// EncodeTasks packs a set of task indices as delta-encoded uvarints.
// The input is sorted (a copy is taken; the argument is not mutated),
// so a shard of Partition's stride, whose tasks lie nshards apart,
// costs one byte per task for up to 127 shards.
func EncodeTasks(tasks []int) []byte {
	if len(tasks) == 0 {
		return nil
	}
	sorted := append([]int(nil), tasks...)
	sort.Ints(sorted)
	buf := make([]byte, 0, len(sorted)+binary.MaxVarintLen64)
	prev := 0
	for _, t := range sorted {
		buf = binary.AppendUvarint(buf, uint64(t-prev))
		prev = t
	}
	return buf
}

// DecodeTasks unpacks an EncodeTasks buffer into strictly ascending
// task indices. The buffer comes off the wire, so a delta that repeats
// an index or carries it past the int range is an error, never a
// duplicate or a negative index handed to an executor.
func DecodeTasks(b []byte) ([]int, error) {
	if len(b) == 0 {
		return nil, nil
	}
	var tasks []int
	prev := 0
	for len(b) > 0 {
		d, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("shard: corrupt task set at entry %d", len(tasks))
		}
		if d > uint64(math.MaxInt-prev) || (d == 0 && len(tasks) > 0) {
			return nil, fmt.Errorf("shard: task set entry %d is not ascending (delta %d after %d)", len(tasks), d, prev)
		}
		b = b[n:]
		prev += int(d)
		tasks = append(tasks, prev)
	}
	return tasks, nil
}
