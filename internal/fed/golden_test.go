package fed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fedcore"
)

// roundDigest is the SHA-256 of one aggregation round's output: every
// personalized payload in order, then the global, each element's IEEE-754
// bits as a little-endian uint64.
func roundDigest(personalized []Payload, global Payload) string {
	h := sha256.New()
	var b [8]byte
	put := func(p Payload) {
		for _, v := range p {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, p := range personalized {
		put(p)
	}
	put(global)
	return hex.EncodeToString(h.Sum(nil))
}

// aggregatorDigests are the frozen outputs of three rounds of every
// aggregator on the k=5, dim=257 uploads drawn from seed 31, recorded from
// the allocating Aggregate implementations.
var aggregatorDigests = map[string][3]string{
	"FedAvg": {
		"0fddc9503747aa4699382df88dda1ac5807453d59a947e78bf52f96e49058bf3",
		"dd7710dd66b7ec8dc597d4b82101024eed58bfd0851e8cfc39348c363834c35d",
		"e6e4448832eb3838cdeda5d012a3bd5befc1cb96fbfd11d3b9e5f9c0503043a9",
	},
	"Momentum": {
		"0fddc9503747aa4699382df88dda1ac5807453d59a947e78bf52f96e49058bf3",
		"cf712323c1860fd96f3c4cd35b854b4d1e495c03d52d1955ebf90d226c42a9f4",
		"668e86119d677a650831b92001d5f5bdd74067203c8ec3e7c16922e545ff7d5d",
	},
	"Attention": {
		"4b105d7b921424d0c74a3077be70c1a74c13b9b794b7d2dcb818129f3bcbacfe",
		"5145fe642902580408143069847e1547872c4d0991e82604b6d01ad02200c31d",
		"d9bafc75e65de2aa77d810838bfa041e9b21c13a7a6a4dd96b566580f6008b79",
	},
	"StaticWeights": {
		"c583a237fc770a46f335529b32da92f315cffb9a3b44edd547d917ee5213462d",
		"dc4e6012e796e1aceb9c756da838813f114564eba07dfd8451aae10cb2ab12b9",
		"a34a3650eb75f7e1248d64d8c4839e429d8a346485d3b1ef7a45e6fd4f6b6cf6",
	},
	"SecureFedAvg": {
		"0835988408086d9723d8810135727de27d251e4dbde1ef7e3ccf2ec4c144074b",
		"7b5dc71c395d8e2c8756d0a858dba81116455236f268f5bc5a2d93355359e7d8",
		"c93e99a89a0cf9052e3db09ae2951ce40a599a7830844b50f18f7949052269de",
	},
}

// TestAggregatorDigestsGolden pins every aggregator's personalized and
// global bits, round by round, on both entry points: AggregateInto on one
// arena reused across rounds, and Aggregate, whose results are digested only
// after the last round so a result that aliases state a later round rewrites
// is caught. Each path gets a fresh instance, so stateful aggregators
// (momentum) evolve identically on both. The make golden target runs it at
// several GOMAXPROCS values: the reduce kernels are serial, so the thread
// count must not reach the arithmetic.
func TestAggregatorDigestsGolden(t *testing.T) {
	const k, dim, rounds = 5, 257, 3
	rng := rand.New(rand.NewSource(31))
	uploads := make([][]Payload, rounds)
	for r := range uploads {
		uploads[r] = make([]Payload, k)
		for i := range uploads[r] {
			uploads[r][i] = make(Payload, dim)
			for j := range uploads[r][i] {
				uploads[r][i][j] = rng.NormFloat64()
			}
		}
	}
	staticW := make([][]float64, k)
	for i := range staticW {
		staticW[i] = make([]float64, k)
		for j := range staticW[i] {
			staticW[i][j] = float64(1+i+j) / float64(k*(2*i+k+1)/2)
		}
	}

	cases := []struct {
		name  string
		fresh func() Aggregator
	}{
		{"FedAvg", func() Aggregator { return FedAvg{} }},
		{"Momentum", func() Aggregator { return NewMomentum(0.9) }},
		{"Attention", func() Aggregator { return NewAttention(11) }},
		{"StaticWeights", func() Aggregator { return StaticWeights{W: staticW} }},
		{"SecureFedAvg", func() Aggregator { return NewSecureFedAvg(5) }},
	}
	if len(cases) != len(aggregatorDigests) {
		t.Fatalf("%d cases for %d frozen digest rows", len(cases), len(aggregatorDigests))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, ok := aggregatorDigests[tc.name]
			if !ok {
				t.Fatalf("no frozen digests for %s", tc.name)
			}
			if into, ok := tc.fresh().(fedcore.IntoAggregator); ok {
				var arena fedcore.PayloadArena
				for r := range uploads {
					if got := roundDigest(into.AggregateInto(uploads[r], &arena)); got != want[r] {
						t.Fatalf("AggregateInto round %d: digest %s, want %s", r, got, want[r])
					}
				}
			}
			agg := tc.fresh()
			type result struct {
				personalized []Payload
				global       Payload
			}
			results := make([]result, rounds)
			for r := range uploads {
				results[r].personalized, results[r].global = agg.Aggregate(uploads[r])
			}
			for r, res := range results {
				if got := roundDigest(res.personalized, res.global); got != want[r] {
					t.Fatalf("Aggregate round %d: digest %s, want %s", r, got, want[r])
				}
			}
		})
	}
}
