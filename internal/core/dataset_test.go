package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// datasetPins pins datasetHash of every kernel's built dataset at
// Small, seed 42. Where TestAnswerMatrix pins what a kernel computes,
// these pin what it is given, field by field — read names, qualities
// and packed words included, which no kernel answer reads. A change
// that moves one moves a generator: update it only on purpose, and say
// why.
var datasetPins = map[string]uint64{
	"fmi":        0x40fdc8e89e8a6917,
	"bsw":        0x24594808293291ed,
	"dbg":        0xfc2c9be34a69c933,
	"phmm":       0x90fae3a47ae4719e,
	"chain":      0x3fe59226bccc9dd2,
	"spoa":       0x133895010626b8bc,
	"abea":       0xc0b1662a35ab77ef,
	"grm":        0x9c8448c4d1d134c5,
	"nn-base":    0x2d54fa7102f232be,
	"pileup":     0xdb86f75e9b2920c5,
	"nn-variant": 0xb628cb54236509fa,
	"kmer-cnt":   0xe651db5f34cb2a1e,
}

// TestDatasetBytesPinned: no refactor of a simulator, a packer or a
// build may move one byte of a dataset or one random draw behind it.
func TestDatasetBytesPinned(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			b, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			b.Prepare(Small, 42)
			got, err := datasetHash(reflect.ValueOf(b).Elem().FieldByName("data"))
			if err != nil {
				t.Fatal(err)
			}
			want, ok := datasetPins[name]
			if !ok {
				t.Fatalf("no pin for %s: got %#016x", name, got)
			}
			if got != want {
				t.Errorf("%s dataset hash %#016x, pinned %#016x", name, got, want)
			}
		})
	}
}

// datasetHash folds v into an FNV-1a 64 digest by a deterministic walk:
// unexported fields too, floats as their bits, slices and strings by
// length then contents (never capacity), map entries in the order of
// their keys' own digests, and a pointer seen before as a back
// reference to its first visit, so shared records hash once and cycles
// end, and a func (an activation) as its function's name. A kind the
// walk cannot hash deterministically (a chan, an unsafe pointer, a func
// with no name) is an error naming its path, never a silent skip.
func datasetHash(v reflect.Value) (uint64, error) {
	w := &datasetWalker{h: fnv.New64a(), seen: map[datasetVisit]uint64{}}
	if err := w.walk(v, "data"); err != nil {
		return 0, err
	}
	return w.h.Sum64(), nil
}

type datasetVisit struct {
	p uintptr
	t reflect.Type
}

type datasetWalker struct {
	h    hash.Hash64
	buf  [8]byte
	seen map[datasetVisit]uint64 // pointer -> ordinal of its first visit
}

func (w *datasetWalker) word(x uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], x)
	w.h.Write(w.buf[:])
}

func (w *datasetWalker) walk(v reflect.Value, path string) error {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			w.word(1)
		} else {
			w.word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		w.word(v.Uint())
	case reflect.Float32:
		w.word(uint64(math.Float32bits(float32(v.Float()))))
	case reflect.Float64:
		w.word(math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		w.word(uint64(len(s)))
		w.h.Write([]byte(s))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case reflect.Slice:
		w.word(uint64(v.Len()))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			w.h.Write(v.Bytes())
			return nil
		}
		for i := 0; i < v.Len(); i++ {
			if err := w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := w.walk(v.Field(i), path+"."+v.Type().Field(i).Name); err != nil {
				return err
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			w.word(0)
			return nil
		}
		key := datasetVisit{v.Pointer(), v.Type()}
		if first, ok := w.seen[key]; ok {
			w.word(2)
			w.word(first)
			return nil
		}
		w.seen[key] = uint64(len(w.seen))
		w.word(1)
		return w.walk(v.Elem(), "(*"+path+")")
	case reflect.Interface:
		if v.IsNil() {
			w.word(0)
			return nil
		}
		w.word(1)
		dyn := v.Elem().Type().String()
		w.word(uint64(len(dyn)))
		w.h.Write([]byte(dyn))
		return w.walk(v.Elem(), path+".(type)")
	case reflect.Func:
		if v.IsNil() {
			w.word(0)
			return nil
		}
		fn := runtime.FuncForPC(v.Pointer())
		if fn == nil {
			return fmt.Errorf("%s: func with no name", path)
		}
		w.word(1)
		w.word(uint64(len(fn.Name())))
		w.h.Write([]byte(fn.Name()))
	case reflect.Map:
		w.word(uint64(v.Len()))
		type entry struct {
			digest uint64
			key    reflect.Value
		}
		entries := make([]entry, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			d, err := datasetHash(it.Key())
			if err != nil {
				return fmt.Errorf("%s key: %w", path, err)
			}
			entries = append(entries, entry{d, it.Key()})
		}
		slices.SortFunc(entries, func(a, b entry) int {
			switch {
			case a.digest < b.digest:
				return -1
			case a.digest > b.digest:
				return 1
			}
			return 0
		})
		for i, e := range entries {
			if i > 0 && entries[i-1].digest == e.digest {
				return fmt.Errorf("%s: two map keys share digest %#x; their order is undefined", path, e.digest)
			}
			w.word(e.digest)
			if err := w.walk(v.MapIndex(e.key), fmt.Sprintf("%s[%#x]", path, e.digest)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%s: cannot hash a %s (%s) deterministically", path, v.Kind(), v.Type())
	}
	return nil
}

// TestDatasetHashWalker: the walker sees unexported fields, maps in key
// order, shared pointers and funcs by name; it ignores capacity; and a
// chan is an error, not a skip.
func TestDatasetHashWalker(t *testing.T) {
	type rec struct {
		name string
		seq  []byte
		q    []float32
		m    map[string]int
		next *rec
		act  func(float64) float64
	}
	mk := func() *rec {
		r := &rec{name: "a", seq: []byte{1, 2, 3}, q: []float32{0.5}, m: map[string]int{"x": 1, "y": 2, "z": 3}, act: math.Abs}
		r.next = r
		return r
	}
	sum := func(r *rec) uint64 {
		t.Helper()
		h, err := datasetHash(reflect.ValueOf(r))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	base := sum(mk())
	if sum(mk()) != base {
		t.Fatal("equal values hash differently")
	}
	roomy := mk()
	roomy.seq = append(make([]byte, 0, 64), roomy.seq...)
	if sum(roomy) != base {
		t.Error("capacity moved the hash")
	}
	for what, edit := range map[string]func(r *rec){
		"unexported string": func(r *rec) { r.name = "b" },
		"byte":              func(r *rec) { r.seq[2] = 0 },
		"float bits":        func(r *rec) { r.q[0] = math.Nextafter32(0.5, 1) },
		"map value":         func(r *rec) { r.m["y"] = 0 },
		"pointer target":    func(r *rec) { r.next = &rec{} },
		"func":              func(r *rec) { r.act = math.Sqrt },
	} {
		r := mk()
		edit(r)
		if sum(r) == base {
			t.Errorf("editing the %s did not move the hash", what)
		}
	}
	if _, err := datasetHash(reflect.ValueOf(struct{ c chan int }{})); err == nil {
		t.Error("a chan hashed without error")
	}
}
