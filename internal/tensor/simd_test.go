package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fillMixed fills data with a mix of ordinary values, exact zeros of both
// signs, and denormals — the populations where a SIMD kernel could diverge
// from the scalar one (zero-skip guards, flush-to-zero, signed-zero sums).
func fillMixed(rng *rand.Rand, data []float64) {
	for i := range data {
		switch rng.Intn(10) {
		case 0:
			data[i] = 0
		case 1:
			data[i] = math.Copysign(0, -1)
		case 2:
			data[i] = 5e-324 * float64(1+rng.Intn(100)) // subnormal
		default:
			data[i] = rng.NormFloat64()
		}
	}
}

func cloneMatrix(m *Matrix) *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

func requireBitIdentical(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length mismatch %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d differs: scalar %v (%#x) vs simd %v (%#x)",
				label, i, want[i], math.Float64bits(want[i]), got[i], math.Float64bits(got[i]))
		}
	}
}

// simdShapes covers full panels (32- and 8-column groups), scalar tails
// (cols % 8 != 0), sub-vector widths that bypass SIMD entirely, and inner
// dimensions spanning several cache blocks.
var simdShapes = []struct{ rows, inner, cols int }{
	{1, 1, 1},
	{3, 5, 7},
	{2, 9, 8},
	{4, 17, 9},
	{5, 64, 16},
	{7, 65, 33},
	{64, 538, 64},
	{9, 130, 65},
	{1, 200, 40},
	{16, 3, 72},
}

func TestMatMulSIMDMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(41))
	for _, sh := range simdShapes {
		m := New(sh.rows, sh.inner)
		b := New(sh.inner, sh.cols)
		fillMixed(rng, m.Data)
		fillMixed(rng, b.Data)

		scalarOut := New(sh.rows, sh.cols)
		simdOut := New(sh.rows, sh.cols)
		prev := setSIMD(false)
		m.MatMulInto(b, scalarOut)
		setSIMD(true)
		m.MatMulInto(b, simdOut)
		setSIMD(prev)
		requireBitIdentical(t, "MatMulInto", scalarOut.Data, simdOut.Data)
	}
}

func TestMatMulTransASIMDMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(42))
	for _, sh := range simdShapes {
		// out = mᵀ·b is sh.rows x sh.cols, with the shared dim sh.inner.
		m := New(sh.inner, sh.rows)
		b := New(sh.inner, sh.cols)
		fillMixed(rng, m.Data)
		fillMixed(rng, b.Data)

		scalarOut := New(sh.rows, sh.cols)
		simdOut := New(sh.rows, sh.cols)
		prev := setSIMD(false)
		m.MatMulTransAInto(b, scalarOut)
		setSIMD(true)
		m.MatMulTransAInto(b, simdOut)
		setSIMD(prev)
		requireBitIdentical(t, "MatMulTransAInto", scalarOut.Data, simdOut.Data)
	}
}

func TestAddInPlaceSIMDMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 64, 100, 537} {
		a := New(1, n)
		b := New(1, n)
		fillMixed(rng, a.Data)
		fillMixed(rng, b.Data)
		scalarA := cloneMatrix(a)
		prev := setSIMD(false)
		scalarA.AddInPlace(b)
		setSIMD(true)
		a.AddInPlace(b)
		setSIMD(prev)
		requireBitIdentical(t, "AddInPlace", scalarA.Data, a.Data)
	}
}

func TestAddScaledInPlaceSIMDMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{1, 8, 9, 33, 100, 537} {
		for _, s := range []float64{1.7, -0.3, 0, math.Copysign(0, -1), 5e-324} {
			a := New(1, n)
			b := New(1, n)
			fillMixed(rng, a.Data)
			fillMixed(rng, b.Data)
			scalarA := cloneMatrix(a)
			prev := setSIMD(false)
			scalarA.AddScaledInPlace(b, s)
			setSIMD(true)
			a.AddScaledInPlace(b, s)
			setSIMD(prev)
			requireBitIdentical(t, "AddScaledInPlace", scalarA.Data, a.Data)
		}
	}
}

func TestAddTanhGradSIMDMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{1, 7, 8, 9, 33, 64, 100, 537} {
		dst := New(1, n)
		g := New(1, n)
		y := New(1, n)
		fillMixed(rng, dst.Data)
		fillMixed(rng, g.Data)
		for i := range y.Data {
			y.Data[i] = math.Tanh(rng.NormFloat64()) // tanh outputs ∈ (-1,1)
		}
		scalarDst := cloneMatrix(dst)
		prev := setSIMD(false)
		scalarDst.AddTanhGradInPlace(g, y)
		setSIMD(true)
		dst.AddTanhGradInPlace(g, y)
		setSIMD(prev)
		requireBitIdentical(t, "AddTanhGradInPlace", scalarDst.Data, dst.Data)
	}
}

func TestAdamUpdateSIMDMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no AVX-512 on this machine")
	}
	rng := rand.New(rand.NewSource(45))
	const lr, beta1, beta2, eps = 3e-4, 0.9, 0.999, 1e-8
	for _, n := range []int{1, 8, 15, 64, 70, 537} {
		p1 := make([]float64, n)
		g := make([]float64, n)
		m1 := make([]float64, n)
		v1 := make([]float64, n)
		fillMixed(rng, p1)
		fillMixed(rng, m1)
		for i := range v1 {
			v1[i] = math.Abs(rng.NormFloat64()) // second moments are nonnegative
		}
		p2 := append([]float64(nil), p1...)
		m2 := append([]float64(nil), m1...)
		v2 := append([]float64(nil), v1...)

		// Several consecutive steps exercise evolving moment state. The
		// gradient is consumed by each call, so every step gets a fresh
		// fill and each path its own copy.
		for step := 1; step <= 3; step++ {
			fillMixed(rng, g)
			g1 := append([]float64(nil), g...)
			g2 := append([]float64(nil), g...)
			bc1 := 1 - math.Pow(beta1, float64(step))
			bc2 := 1 - math.Pow(beta2, float64(step))
			prev := setSIMD(false)
			AdamUpdate(p1, g1, m1, v1, lr, beta1, beta2, eps, bc1, bc2)
			setSIMD(true)
			AdamUpdate(p2, g2, m2, v2, lr, beta1, beta2, eps, bc1, bc2)
			setSIMD(prev)
			for i := range g1 {
				if g1[i] != 0 || g2[i] != 0 {
					t.Fatalf("AdamUpdate left gradient residue at %d: scalar %v simd %v", i, g1[i], g2[i])
				}
			}
		}
		requireBitIdentical(t, "AdamUpdate p", p1, p2)
		requireBitIdentical(t, "AdamUpdate m", m1, m2)
		requireBitIdentical(t, "AdamUpdate v", v1, v2)
	}
}

// tanhEdgeCases are the inputs where a transcription of math.Tanh could
// leave the library: both signed zeros, the polynomial/exp band edge at
// 0.625 and the saturation edge at 0.5*MAXLOG with their float neighbours,
// subnormals, the extremes of the range and NaNs.
func tanhEdgeCases() []float64 {
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	var out []float64
	for _, v := range []float64{0.625, halfMaxLog} {
		out = append(out, math.Nextafter(v, 0), v, math.Nextafter(v, math.Inf(1)))
	}
	out = append(out,
		0,
		5e-324, 1e-320, math.Float64frombits(0x000FFFFFFFFFFFFF), // subnormals
		math.SmallestNonzeroFloat64*3, 2.2250738585072014e-308, 1e-300,
		1e-8, 0.5, 1, 20, 44, 88.03, 700, 710, 1e300,
		math.MaxFloat64, math.Inf(1),
		// Each of these changes if one of archExp's last three FMAs (the
		// +0.5 and +1 Taylor steps, the final +1) is computed unfused.
		math.Float64frombits(0x3FF29B9CC35332B0),
		math.Float64frombits(0x3FECB7C4C88329CA),
		math.Float64frombits(0x3FEBDF4A0C37523E),
	)
	n := len(out)
	for i := 0; i < n; i++ {
		out = append(out, -out[i])
	}
	return append(out, math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF0000000000001))
}

// tanhInputs returns the edge cases followed by seeded draws at several
// scales: normal draws around the polynomial band, the exp band and the
// saturation edge, uniform draws on [-50, 50], and raw 64-bit patterns.
func tanhInputs(n int) []float64 {
	rng := rand.New(rand.NewSource(53))
	out := tanhEdgeCases()
	for len(out) < n {
		switch len(out) % 5 {
		case 0:
			out = append(out, 0.3*rng.NormFloat64())
		case 1:
			out = append(out, 3*rng.NormFloat64())
		case 2:
			out = append(out, 30*rng.NormFloat64())
		case 3:
			out = append(out, 100*rng.Float64()-50)
		default:
			out = append(out, math.Float64frombits(rng.Uint64()))
		}
	}
	return out
}

// checkTanh fails unless got[i] is bitwise math.Tanh(in[i]); for a NaN input
// it only asks for a NaN.
func checkTanh(t *testing.T, label string, in, got []float64) {
	t.Helper()
	for i, x := range in {
		want := math.Tanh(x)
		if math.IsNaN(x) {
			if !math.IsNaN(got[i]) {
				t.Fatalf("%s: tanh(%v) = %v, want NaN", label, x, got[i])
			}
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: tanh(%v) (%#x) = %v (%#x), want %v (%#x)", label,
				x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

func TestTanhIntoBitIdentical(t *testing.T) {
	inputs := tanhInputs(1 << 20)
	for _, simd := range []bool{true, false} {
		prev := setSIMD(simd)
		label := "scalar"
		if simdEnabled && hasFMA {
			label = "simd"
		}
		for _, n := range []int{1, 7, 8, 9, 64, 537} {
			src, dst := New(1, n), New(1, n)
			// Start each length at a different phase so every edge case
			// lands in a vector lane for some lengths and in the scalar
			// tail for others.
			for off := n % 5; off+n <= len(inputs); off += n {
				copy(src.Data, inputs[off:off+n])
				src.TanhInto(dst)
				checkTanh(t, fmt.Sprintf("%s n=%d off=%d", label, n, off), src.Data, dst.Data)
			}
			// In place, as nn.MLP.Infer calls it.
			copy(src.Data, inputs[:n])
			src.TanhInto(src)
			checkTanh(t, fmt.Sprintf("%s n=%d in place", label, n), inputs[:n], src.Data)
		}
		setSIMD(prev)
	}
}

// FuzzTanhInto feeds arbitrary bit patterns through TanhInto. The input is
// repeated to at least 17 elements so the vector kernel and the scalar tail
// both run.
func FuzzTanhInto(f *testing.F) {
	for _, v := range tanhEdgeCases() {
		f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 || len(data) > 8*64 {
			return
		}
		var vals []float64
		for i := 0; i+8 <= len(data); i += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		for len(vals) < 17 {
			vals = append(vals, vals...)
		}
		src, dst := New(1, len(vals)), New(1, len(vals))
		copy(src.Data, vals)
		src.TanhInto(dst)
		checkTanh(t, "fuzz", vals, dst.Data)
	})
}

// BenchmarkTanhInto measures the hidden-layer activation of the paper's
// MLPs on a 64x64 batch of standard-normal pre-activations, with the vector kernel and with the scalar
// math.Tanh loop. Both must be allocation-free.
func BenchmarkTanhInto(b *testing.B) {
	src := RandNormal(rand.New(rand.NewSource(59)), 64, 64, 0, 1)
	dst := New(64, 64)
	for _, mode := range []struct {
		name string
		simd bool
	}{{"simd", true}, {"scalar", false}} {
		b.Run(mode.name, func(b *testing.B) {
			prev := setSIMD(mode.simd)
			defer setSIMD(prev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.TanhInto(dst)
			}
		})
	}
}
