package nn

// AVX2 bodies of the exact activation lanes (act_amd64.s); see act.go
// for the contract. sweep gates every call on cpufeat.AVX2(), which
// also guarantees FMA, and hands down equal lengths that are a
// positive multiple of 4. Each returns whether it left any lane's
// input in dst for sweep to redo.

const haveActAsm = true

//go:noescape
func sigmoidAsm(dst, src []float32) (redo bool)

//go:noescape
func tanhAsm(dst, src []float32) (redo bool)

//go:noescape
func swishAsm(dst, src []float32) (redo bool)

// The float64 cores alone, for tests: len(src) a positive multiple of
// 4, |x| <= 700 for sigmoid64Asm and no NaN for tanh64Asm.

//go:noescape
func sigmoid64Asm(dst, src []float64)

//go:noescape
func tanh64Asm(dst, src []float64)
