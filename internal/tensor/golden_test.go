package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// matrixDigest is the SHA-256 of m's shape followed by every element's
// IEEE-754 bits, each as a little-endian uint64, so any moved bit changes it.
func matrixDigest(m *Matrix) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(m.Rows))
	put(uint64(m.Cols))
	for _, v := range m.Data {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// kernelDigestInputs are the seeded operands of TestKernelDigestsGolden. At
// 37×53 no row, and not the whole matrix, is a multiple of 8 long, so every
// kernel runs its scalar tail as well as any vector prefix.
func kernelDigestInputs() (a, b, bias *Matrix) {
	rng := rand.New(rand.NewSource(37))
	return RandNormal(rng, 37, 53, 0, 1), RandNormal(rng, 37, 53, 0.5, 2), RandNormal(rng, 1, 53, 0, 1)
}

// kernelDigests are the frozen outputs of the kernels on kernelDigestInputs,
// recorded from the allocating reference implementations they replaced.
var kernelDigests = map[string]string{
	"AddInto":             "3092ef28c61efbc0c5614d15435bca8a45f18ce42709bac89a25bfabbfbacad0",
	"SubInto":             "37873b5c2ac3c81f31228be5098b43670017201a2a5dccf5d9908aff60008fe4",
	"MulElemInto":         "561ac116c696e530789bb86da72309d955864b2919af10078a85ee6d114d1f9d",
	"ScaleInto":           "2a7e8657e5688bf8386fa4b1992b4f3182368f61076ec5d6389220b2e972ee2d",
	"ApplyInto":           "03101bc8762e944ec79207b71fc877a4ebb12337c2a7e2a301e39ed5d454008a",
	"AddRowBroadcastInto": "b317ab6af8d695f8b6dfc240c4f6cb86140d68a4b1e2f88b3c62eff106c1ab27",
	"SumRowsInto":         "ea3c606b5eae9d42a41f031a35262482b2a67acb802e8a79c550db732471fb0d",
	"SumColsInto":         "9d1fd44f6ff8573144de56e72380160ac6ccb462dee7baf824348305955a7956",
	"SoftmaxRowsInto":     "198f78450b6426403b05fda92e60c8dea31caf3481bbc0d715ecfa0d86088748",
	"LogSoftmaxRowsInto":  "983578bfe0b85217e3cf3542ecaab8e924129f6be7e06ca92a3f0d4138314faa",
}

// TestKernelDigestsGolden pins the elementwise, broadcast, reduction and
// softmax kernels bit for bit. Each runs into a fresh NaN-filled dst (so a
// kernel that leaves an element unwritten is caught) and, where dst may
// alias the receiver, once more in place.
func TestKernelDigestsGolden(t *testing.T) {
	a, b, bias := kernelDigestInputs()
	cases := []struct {
		name       string
		rows, cols int
		inPlace    bool
		run        func(m, dst *Matrix) *Matrix
	}{
		{"AddInto", 37, 53, true, func(m, dst *Matrix) *Matrix { return m.AddInto(b, dst) }},
		{"SubInto", 37, 53, true, func(m, dst *Matrix) *Matrix { return m.SubInto(b, dst) }},
		{"MulElemInto", 37, 53, true, func(m, dst *Matrix) *Matrix { return m.MulElemInto(b, dst) }},
		{"ScaleInto", 37, 53, true, func(m, dst *Matrix) *Matrix { return m.ScaleInto(3.7, dst) }},
		{"ApplyInto", 37, 53, true, func(m, dst *Matrix) *Matrix { return m.ApplyInto(math.Sin, dst) }},
		{"AddRowBroadcastInto", 37, 53, true, func(m, dst *Matrix) *Matrix { return m.AddRowBroadcastInto(bias, dst) }},
		{"SumRowsInto", 37, 1, false, func(m, dst *Matrix) *Matrix { return m.SumRowsInto(dst) }},
		{"SumColsInto", 1, 53, false, func(m, dst *Matrix) *Matrix { return m.SumColsInto(dst) }},
		{"SoftmaxRowsInto", 37, 53, true, func(m, dst *Matrix) *Matrix { return m.SoftmaxRowsInto(dst) }},
		{"LogSoftmaxRowsInto", 37, 53, true, func(m, dst *Matrix) *Matrix { return m.LogSoftmaxRowsInto(dst) }},
	}
	if len(cases) != len(kernelDigests) {
		t.Fatalf("%d cases for %d frozen digests", len(cases), len(kernelDigests))
	}
	input := matrixDigest(a)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, ok := kernelDigests[tc.name]
			if !ok {
				t.Fatalf("no frozen digest for %s", tc.name)
			}
			if got := matrixDigest(tc.run(a, Full(tc.rows, tc.cols, math.NaN()))); got != want {
				t.Fatalf("fresh dst: digest %s, want %s", got, want)
			}
			if matrixDigest(a) != input {
				t.Fatal("kernel modified its receiver")
			}
			if tc.inPlace {
				c := a.Clone()
				if got := matrixDigest(tc.run(c, c)); got != want {
					t.Fatalf("in place: digest %s, want %s", got, want)
				}
			}
		})
	}
}
