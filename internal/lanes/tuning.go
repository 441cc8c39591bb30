// Measured 16-wide-vs-narrow dispatch floor for the wide SIMD tier.
//
// The wide (I16x16 / AVX2) row kernels pay fixed setup per
// alignment — mask builds, ramp constants, one asm call per DP row —
// that the narrower paths skip, so tiny problems can lose to the
// narrow path even on hosts where the wide kernels scream. Where the
// break-even sits depends on the host, so it is measured once per
// process (and persisted per host class) instead of assumed: problems
// whose DP area falls below lanes.wide_min_work take the narrow path.
//
// The probe itself lives with the kernel that owns the heaviest wide
// sweep (poa registers it via SetWideProbe at init); binaries that
// link a wide consumer without a registered probe resolve to the
// default 0 — wide whenever eligible. Pin with
// GBENCH_TUNE_LANES_WIDE_MIN_WORK, or GBENCH_TUNE=off for the default.
package lanes

import "repro/internal/tuning"

// WideMinWorkCap bounds the probe's answer: a measurement can turn
// the wide tier off for small problems, not disable it wholesale.
// Exported so consumer tests can pin the floor to its ceiling.
const WideMinWorkCap = 1 << 15

// WideMinWork is the DP-area floor (rows x columns) below which wide
// consumers should prefer their narrow path.
var WideMinWork *tuning.Int

// wideProbeFn is installed by SetWideProbe before the tunable first
// resolves (package init order guarantees it: consumers import lanes).
var wideProbeFn func() int

func init() {
	WideMinWork = tuning.NewInt("lanes.wide_min_work", 0, 0, WideMinWorkCap, func() int {
		if wideProbeFn == nil {
			return 0
		}
		return wideProbeFn()
	})
}

// SetWideProbe installs the microprobe that measures the wide-vs-
// narrow break-even on this host. Call from a consumer package's
// init; the last registration wins, and the probe only runs if the
// tunable resolves without an env override or cached value.
func SetWideProbe(f func() int) { wideProbeFn = f }
