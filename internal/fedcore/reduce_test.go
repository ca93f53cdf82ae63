package fedcore

import (
	"math/rand"
	"testing"
)

func randUploads(seed int64, k, dim int) []Payload {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Payload, k)
	for i := range out {
		out[i] = make(Payload, dim)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

// TestReduceMeanIntoBitIdentical: the mean must match the seed-era sequential
// loop bit for bit — the degradation pin's foundation.
func TestReduceMeanIntoBitIdentical(t *testing.T) {
	const k, dim = 7, 16384
	uploads := randUploads(20, k, dim)

	want := make(Payload, dim)
	for _, u := range uploads {
		for j, v := range u {
			want[j] += v
		}
	}
	for j := range want {
		want[j] *= 1.0 / float64(k)
	}

	dst := make(Payload, dim)
	ReduceMeanInto(dst, uploads)
	for j := range want {
		if dst[j] != want[j] {
			t.Fatalf("mean diverges at %d: %v vs %v", j, dst[j], want[j])
		}
	}
}

func TestWeightedMixIntoBitIdentical(t *testing.T) {
	const k, dim = 6, 8192
	uploads := randUploads(21, k, dim)
	rng := rand.New(rand.NewSource(22))
	w := make([][]float64, k)
	for i := range w {
		w[i] = make([]float64, k)
		for j := range w[i] {
			w[i][j] = rng.Float64()
		}
	}

	want := make([]Payload, k)
	for i := range want {
		want[i] = make(Payload, dim)
		for j := 0; j < k; j++ {
			for d, v := range uploads[j] {
				want[i][d] += w[i][j] * v
			}
		}
	}

	var arena PayloadArena
	dst := arena.Payloads(k, dim)
	WeightedMixInto(dst, w, uploads)
	for i := range want {
		for d := range want[i] {
			if dst[i][d] != want[i][d] {
				t.Fatalf("mix diverges at [%d][%d]", i, d)
			}
		}
	}
}

func TestReduceValidationPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("zero uploads", func() { ReduceMeanInto(make(Payload, 4), nil) })
	expectPanic("ragged uploads", func() {
		ReduceMeanInto(make(Payload, 4), []Payload{make(Payload, 4), make(Payload, 3)})
	})
	expectPanic("mix shape", func() {
		WeightedMixInto(make([]Payload, 2), [][]float64{{1}}, []Payload{make(Payload, 4)})
	})
	expectPanic("mix non-square", func() {
		var arena PayloadArena
		WeightedMixInto(arena.Payloads(1, 4), [][]float64{{1, 2}}, []Payload{make(Payload, 4)})
	})
}

func TestPayloadArenaReuse(t *testing.T) {
	var arena PayloadArena
	views := arena.Payloads(3, 100)
	if len(views) != 3 {
		t.Fatal("wrong view count")
	}
	// Distinct non-overlapping views over one slab.
	views[0][99], views[1][0] = 1, 2
	if views[0][99] != 1 || views[1][0] != 2 {
		t.Fatal("views overlap")
	}
	g := arena.Global(100)

	// Steady state: same shapes come from the same buffers, no allocation.
	if n := testing.AllocsPerRun(20, func() {
		arena.Payloads(3, 100)
		arena.Global(100)
		arena.Alias(3, g)
	}); n != 0 {
		t.Fatalf("warm arena allocates %v/op", n)
	}
	if again := arena.Payloads(3, 100); &again[0][0] != &views[0][0] {
		t.Fatal("warm arena did not reuse its slab")
	}

	aliased := arena.Alias(3, g)
	for _, v := range aliased {
		if &v[0] != &g[0] {
			t.Fatal("alias views must share the payload backing")
		}
	}
}
