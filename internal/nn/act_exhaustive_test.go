//go:build exhaustive

package nn

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cpufeat"
)

// TestActivationLanesExhaustive compares the slice kernels with the
// scalar functions on all 2^32 float32 bit patterns, split across
// GOMAXPROCS workers. It takes about 90 s on two cores, so it
// sits behind the exhaustive tag:
//
//	go test -tags exhaustive -run Exhaustive -timeout 30m ./internal/nn/
func TestActivationLanesExhaustive(t *testing.T) {
	if !(haveActAsm && cpufeat.AVX2()) {
		t.Skip("no AVX2 tier to compare: the portable body is the scalar function")
	}
	const block = 1 << 16
	workers := runtime.GOMAXPROCS(0)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		mismatch = map[string]int{}
		first    = map[string]uint32{}
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := make([]float32, block)
			dst := make([]float32, block)
			for base := uint64(w) * block; base < 1<<32; base += uint64(workers) * block {
				for i := range src {
					src[i] = math.Float32frombits(uint32(base) + uint32(i))
				}
				for _, a := range activations {
					a.slice(dst, src)
					for i, x := range src {
						if math.Float32bits(dst[i]) != math.Float32bits(a.ref(x)) {
							mu.Lock()
							if mismatch[a.name] == 0 {
								first[a.name] = math.Float32bits(x)
							}
							mismatch[a.name]++
							mu.Unlock()
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, a := range activations {
		if n := mismatch[a.name]; n > 0 {
			t.Errorf("%s: %d of 2^32 inputs differ from the scalar function, among them %#08x", a.name, n, first[a.name])
		} else {
			t.Logf("%s: 0 of 2^32 inputs differ", a.name)
		}
	}
}
