package grm

import "repro/internal/cpufeat"

// The register tile under Blocks.Compute: tileRows x panelWidth entries
// of Z·Zᵀ advance together down the sites, where a single dot product
// is one multiply-add chain bound by the latency of its add. The AVX2
// body (tile_amd64.s) keeps all 32 chains in YMM accumulators; the
// portable body below runs them four at a time, which is what fits
// the scalar register file. Each entry keeps the identity rules of
// the f32 microkernel in internal/nn — its own accumulator, sites in
// ascending order, and a rounded multiply followed by a rounded add:
// VMULPD then VADDPD in the assembly, an explicit float64(x*y) here so
// that arm64 cannot fuse — which makes every tier equal, bit for bit,
// to ComputeNaive.
const (
	tileRows   = 4
	panelWidth = 8
)

// dotTile fills acc[r*panelWidth+c] with Σ_k zi[k*panelWidth+row0+r] ·
// zj[k*panelWidth+c] over the s sites of two standardizePanels panels:
// rows row0..row0+tileRows-1 of zi's panel against all of zj's.
func dotTile(zi []float64, row0 int, zj []float64, s int, acc *[tileRows * panelWidth]float64) {
	if haveTileAsm && s > 0 && cpufeat.AVX2() {
		_, _ = zi[s*panelWidth-1], zj[s*panelWidth-1] // the assembly body does no bounds checks
		dotTileAVX2(zi, row0, zj, s, acc)
		return
	}
	dotTilePortable(zi, row0, zj, s, acc)
}

func dotTilePortable(zi []float64, row0 int, zj []float64, s int, acc *[tileRows * panelWidth]float64) {
	zi, zj = zi[:s*panelWidth], zj[:s*panelWidth]
	for r := 0; r < tileRows; r++ {
		for c := 0; c < panelWidth; c += 4 {
			var c0, c1, c2, c3 float64
			for k := 0; k+panelWidth <= len(zj); k += panelWidth {
				a := zi[k+row0+r]
				b := zj[k+c : k+c+4 : k+c+4]
				c0 += float64(a * b[0])
				c1 += float64(a * b[1])
				c2 += float64(a * b[2])
				c3 += float64(a * b[3])
			}
			o := acc[r*panelWidth+c:]
			o[0], o[1], o[2], o[3] = c0, c1, c2, c3
		}
	}
}
