package fed

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/fedcore"
)

// TestAggregateIntoMatchesAggregate is the aggregator half of the degradation
// pin: for every strategy the pooled arena fast path must reproduce the
// legacy allocating Aggregate bit for bit, at any number of scheduler worker
// threads (GOMAXPROCS 1 and 4): the reduce kernels are serial, so the thread
// count must not reach the arithmetic. Stateful aggregators (momentum) are
// driven through multiple rounds on independent instances so their internal
// state evolves identically on both paths.
func TestAggregateIntoMatchesAggregate(t *testing.T) {
	const k, dim, rounds = 5, 257, 3

	makeUploads := func(rng *rand.Rand) []Payload {
		uploads := make([]Payload, k)
		for i := range uploads {
			uploads[i] = make(Payload, dim)
			for j := range uploads[i] {
				uploads[i][j] = rng.NormFloat64()
			}
		}
		return uploads
	}

	staticW := make([][]float64, k)
	for i := range staticW {
		staticW[i] = make([]float64, k)
		for j := range staticW[i] {
			staticW[i][j] = 1.0 / float64(k)
		}
	}

	cases := []struct {
		name string
		// fresh builds an independent instance per path so stateful
		// aggregators cannot leak rounds across the comparison.
		fresh func() Aggregator
	}{
		{"FedAvg", func() Aggregator { return FedAvg{} }},
		{"Momentum", func() Aggregator { return NewMomentum(0.9) }},
		{"Attention", func() Aggregator { return NewAttention(11) }},
		{"StaticWeights", func() Aggregator { return StaticWeights{W: staticW} }},
	}

	for _, workers := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(workers)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(t *testing.T) {
				legacy, pooled := tc.fresh(), tc.fresh()
				into, ok := pooled.(fedcore.IntoAggregator)
				if !ok {
					t.Fatalf("%s does not implement the pooled fast path", tc.name)
				}
				rng := rand.New(rand.NewSource(31))
				var arena fedcore.PayloadArena
				for round := 0; round < rounds; round++ {
					uploads := makeUploads(rng)
					wantPers, wantGlobal := legacy.Aggregate(uploads)
					gotPers, gotGlobal := into.AggregateInto(uploads, &arena)
					if len(gotPers) != len(wantPers) {
						t.Fatalf("round %d: %d personalized payloads, want %d", round, len(gotPers), len(wantPers))
					}
					for i := range wantPers {
						for j := range wantPers[i] {
							if gotPers[i][j] != wantPers[i][j] {
								t.Fatalf("round %d: personalized[%d][%d] = %v, want %v (bitwise)",
									round, i, j, gotPers[i][j], wantPers[i][j])
							}
						}
					}
					for j := range wantGlobal {
						if gotGlobal[j] != wantGlobal[j] {
							t.Fatalf("round %d: global[%d] = %v, want %v (bitwise)",
								round, j, gotGlobal[j], wantGlobal[j])
						}
					}
				}
			})
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestEngineRoundSteadyStateAllocs holds the engine's aggregation step — the
// arena-backed AggregatePartialInto the round engine calls every commit — to
// zero allocations once warm, for the aggregators whose data plane is pure
// reduction. (Attention allocates its O(K²) weight matrix by design.)
func TestEngineRoundSteadyStateAllocs(t *testing.T) {
	const k, dim = 4, 2048
	rng := rand.New(rand.NewSource(17))
	uploads := make([]Payload, k)
	for i := range uploads {
		uploads[i] = make(Payload, dim)
		for j := range uploads[i] {
			uploads[i][j] = rng.NormFloat64()
		}
	}
	prevGlobal := make(Payload, dim)

	for _, tc := range []struct {
		name string
		agg  Aggregator
	}{
		{"FedAvg", FedAvg{}},
		{"Momentum", NewMomentum(0.9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var arena fedcore.PayloadArena
			fedcore.AggregatePartialInto(tc.agg, uploads, prevGlobal, &arena)
			if n := testing.AllocsPerRun(20, func() {
				fedcore.AggregatePartialInto(tc.agg, uploads, prevGlobal, &arena)
			}); n != 0 {
				t.Fatalf("warm %s round allocates %v/op; want 0", tc.name, n)
			}
		})
	}
}
