//go:build amd64

package tensor

// SIMD fast paths for the hot kernels. The assembly routines in simd_amd64.s
// vectorize ACROSS OUTPUT COLUMNS only: every output element still sees the
// exact same sequence of scalar multiply-then-add operations, in the same
// k-ascending order, as the portable Go loops. Separate VMULPD + VADDPD are
// used instead of FMA precisely because a fused multiply-add rounds once
// where the scalar code rounds twice — FMA would change low-order bits and
// break the repo's bit-reproducibility guarantee. Under that constraint the
// SIMD kernels are bitwise identical to the scalar kernels (pinned by
// TestAxpySIMDMatchesScalar and friends), so enabling them never changes a
// training run.
//
// The one exception to "never FMA" is tanhCols. Its reference is not a Go
// loop but math.Tanh, whose amd64 math.Exp (archExp) itself uses FMA when
// the CPU has it. tanhCols fuses exactly where archExp fuses and nowhere
// else, which is what makes it bit-identical to the library; it is gated on
// the same CPU test (hasFMA) so it never runs where archExp would not fuse.

// simdEnabled gates all assembly fast paths. It is true when the CPU and OS
// support AVX-512F. Tests flip it via setSIMD to compare both paths.
var simdEnabled = x86HasAVX512()

// setSIMD overrides the runtime SIMD choice; it returns the previous value
// so tests can restore it. Disabling always works; enabling on a machine
// without AVX-512 would fault, so enable only re-arms the detected value.
func setSIMD(on bool) bool {
	prev := simdEnabled
	simdEnabled = on && x86HasAVX512()
	return prev
}

// SIMDEnabled reports whether the AVX-512 fast paths are active.
func SIMDEnabled() bool { return simdEnabled }

// hasFMA mirrors the math package's choice of its FMA exp path
// (useFMA = HasAVX && HasFMA). tanhCols transcribes that path, so it may run
// only where math.Exp would take it too.
var hasFMA = x86HasFMA()

// x86HasFMA reports CPU + OS support for AVX and FMA, exactly as the math
// package's useFMA does.
func x86HasFMA() bool

// x86HasAVX512 reports CPU + OS support for AVX-512F (CPUID leaf 7 EBX bit
// 16, with OSXSAVE and XCR0 opmask/ZMM state enabled).
func x86HasAVX512() bool

// axpyCols computes, for t in [0,k): dst[0:cols] += s[t*sStride] * b[t*bStride : +cols],
// with cols a positive multiple of 8. Scalars equal to zero are skipped
// entirely, matching the `if mv == 0 { continue }` guard in the scalar
// kernels (the test is on the value bits shifted left by one, so -0.0 is
// skipped exactly like +0.0). Accumulators live in registers for the whole
// k loop; per output element the operation sequence is add(mul(s,b)) in
// k-ascending order — identical to the scalar loops.
//
//go:noescape
func axpyCols(dst, b, s *float64, k, cols, bStride, sStride int)

// vecAdd computes dst[0:n] += src[0:n] for n a positive multiple of 8.
//
//go:noescape
func vecAdd(dst, src *float64, n int)

// tanhGradCols computes dst[0:n] += grad * (1 - y*y) for n a positive
// multiple of 8 — the fused tanh backward, bitwise identical to the separate
// ApplyInto(1-y²) + MulElemInto + AddInPlace passes it replaces.
//
//go:noescape
func tanhGradCols(dst, grad, y *float64, n int)

// adamCols applies the element-wise Adam update to n elements (n a positive
// multiple of 8), transcribing the exact float op order of the scalar rule
// in adamScalar, and clears grad in the same pass. All ops involved (mul,
// add, sub, div, sqrt) are correctly rounded under IEEE-754, so the vector
// lanes match the scalar loop bitwise.
//
//go:noescape
func adamCols(p, grad, m, v *float64, n int, beta1, c1, beta2, c2, bc1, bc2, lr, eps float64)

// tanhCols sets dst[0:n] = math.Tanh(src[0:n]) for n a positive multiple of
// 8, bitwise identical to the library: it transcribes math.tanh with the
// FMA path of the amd64 math.Exp. It may run only when hasFMA is true.
//
//go:noescape
func tanhCols(dst, src *float64, n int)
