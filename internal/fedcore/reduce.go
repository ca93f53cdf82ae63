package fedcore

import "fmt"

// checkUploads validates a reduce's inputs: at least one upload, all of the
// expected length. Mirrors the seed-era meanPayload panics.
func checkUploads(uploads []Payload, dim int) {
	if len(uploads) == 0 {
		panic("fedcore: aggregate of zero uploads")
	}
	for i, u := range uploads {
		if len(u) != dim {
			panic(fmt.Sprintf("fedcore: upload %d has %d params, want %d", i, len(u), dim))
		}
	}
}

// ReduceMeanInto computes dst = mean(uploads) with dst fully overwritten.
// The accumulation order per element is upload order starting from zero —
// exactly the seed-era sequential loop — so the result is bit-identical to
// it. dst must not alias any upload.
func ReduceMeanInto(dst Payload, uploads []Payload) {
	checkUploads(uploads, len(dst))
	inv := 1.0 / float64(len(uploads))
	clear(dst)
	for _, u := range uploads {
		for j, v := range u {
			dst[j] += v
		}
	}
	for j := range dst {
		dst[j] *= inv
	}
}

// WeightedMixInto computes dst[i] = Σ_j w[i][j]·uploads[j] for every row i
// (the attention/static-weights personalization mix, Eq. 21). Per element
// the j-accumulation order is fixed, matching the seed-era loops
// bit-identically. Each dst[i] must be dim long and must not alias any
// upload.
func WeightedMixInto(dst []Payload, w [][]float64, uploads []Payload) {
	k := len(uploads)
	if len(dst) != k || len(w) != k {
		panic(fmt.Sprintf("fedcore: weighted mix of %d uploads with %d outputs, %d weight rows", k, len(dst), len(w)))
	}
	if k == 0 {
		return
	}
	dim := len(uploads[0])
	checkUploads(uploads, dim)
	for i := range dst {
		if len(w[i]) != k {
			panic("fedcore: weight matrix not square")
		}
		p := dst[i][:dim]
		clear(p)
		for j := 0; j < k; j++ {
			wij := w[i][j]
			for d, v := range uploads[j][:dim] {
				p[d] += wij * v
			}
		}
	}
}

// PayloadArena owns reusable aggregation buffers so steady-state rounds
// allocate nothing: the personalized payload views, their backing slab, and
// the global output. Buffers grow to the high-water mark and are reused
// across rounds. Everything an arena hands out is valid only until its next
// use — callers that retain results across rounds must copy (the engine
// copies the global; the adapters copy or immediately install the
// personalized payloads).
type PayloadArena struct {
	views  []Payload
	slab   []float64
	global Payload
}

// Global returns the arena's dim-length global output buffer (contents
// undefined).
func (a *PayloadArena) Global(dim int) Payload {
	if cap(a.global) < dim {
		a.global = make(Payload, dim)
	}
	a.global = a.global[:dim]
	return a.global
}

// Payloads returns k distinct dim-length views carved from the arena slab
// (contents undefined).
func (a *PayloadArena) Payloads(k, dim int) []Payload {
	if need := k * dim; cap(a.slab) < need {
		a.slab = make([]float64, need)
	}
	views := a.viewSlice(k)
	for i := range views {
		views[i] = a.slab[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return views
}

// Alias returns k views that all reference p — the zero-copy personalized
// set for aggregators whose participants receive identical payloads
// (FedAvg, momentum). Callers must treat the views as read-only.
func (a *PayloadArena) Alias(k int, p Payload) []Payload {
	views := a.viewSlice(k)
	for i := range views {
		views[i] = p
	}
	return views
}

func (a *PayloadArena) viewSlice(k int) []Payload {
	if cap(a.views) < k {
		a.views = make([]Payload, k)
	}
	a.views = a.views[:k]
	return a.views
}
