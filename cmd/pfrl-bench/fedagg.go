package main

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/fednet"
	"repro/internal/trace"
)

// The federation data-plane benchmark: pooled aggregation and the
// quantized wire codec at the public-critic payload width.
const (
	fedAggDim = 34561

	// Frozen ns/op of the seed-era sequential FedAvg data plane (allocating
	// meanPayload plus K personalized copies) at fedAggDim, measured on the
	// reference CI machine (Intel Xeon 2.10 GHz) before the pooled
	// aggregation rewrite. Kept so BENCH_FedAggregate.json pins the speedup.
	fedAggBaselineK8   = 546045.0
	fedAggBaselineK64  = 6986055.0
	fedAggBaselineK256 = 30572198.0
)

func fedAggBaseline(k int) float64 {
	switch k {
	case 8:
		return fedAggBaselineK8
	case 64:
		return fedAggBaselineK64
	case 256:
		return fedAggBaselineK256
	}
	return 0
}

// fedAggEntry is one pure-aggregation measurement: K uploads reduced through
// the pooled FedAvg fast path — the same work the frozen baseline did, minus
// its per-round allocations and copies.
type fedAggEntry struct {
	K               int     `json:"k"`
	Iterations      int     `json:"iterations"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup         float64 `json:"speedup_vs_baseline,omitempty"`
}

// fedCodecEntry is one full data-plane measurement: K encodes, K decodes,
// and the pooled aggregation, plus the measured wire volume of the round
// (K uplink + K downlink frames) against the raw float64 volume.
type fedCodecEntry struct {
	K                 int     `json:"k"`
	Tier              string  `json:"tier"`
	Iterations        int     `json:"iterations"`
	NsPerOp           float64 `json:"ns_per_op"`
	AllocsPerOp       int64   `json:"allocs_per_op"`
	WireBytesPerRound int64   `json:"wire_bytes_per_round"`
	RawBytesPerRound  int64   `json:"raw_bytes_per_round"`
	CompressionRatio  float64 `json:"compression_ratio"`
}

// fedSwarmThroughput is the 104-client loopback swarm readout with the codec
// on: committed async rounds over the drive loop's wall clock.
type fedSwarmThroughput struct {
	Clients          int     `json:"clients"`
	Tier             string  `json:"tier"`
	Delta            bool    `json:"delta"`
	Rounds           int     `json:"rounds"`
	ElapsedSeconds   float64 `json:"elapsed_seconds"`
	RoundsPerSecond  float64 `json:"rounds_per_second"`
	WireBytes        int64   `json:"wire_bytes"`
	CompressionRatio float64 `json:"compression_ratio"`
	MeanReward       float64 `json:"mean_reward"`
}

// fedAggResult is the schema of the BENCH_FedAggregate.json artifact.
type fedAggResult struct {
	Name      string              `json:"name"`
	Dim       int                 `json:"dim"`
	Aggregate []fedAggEntry       `json:"aggregate"`
	DataPlane []fedCodecEntry     `json:"data_plane"`
	Swarm     *fedSwarmThroughput `json:"swarm,omitempty"`
}

func fedAggUploads(k int) []fed.Payload {
	rng := rand.New(rand.NewSource(7))
	uploads := make([]fed.Payload, k)
	for i := range uploads {
		uploads[i] = make(fed.Payload, fedAggDim)
		for j := range uploads[i] {
			uploads[i][j] = rng.NormFloat64()
		}
	}
	return uploads
}

func benchFedAggOnly(uploads []fed.Payload) func(*testing.B) {
	return func(b *testing.B) {
		agg := fed.FedAvg{}
		var arena fedcore.PayloadArena
		agg.AggregateInto(uploads, &arena)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			agg.AggregateInto(uploads, &arena)
		}
	}
}

func benchFedDataPlane(uploads []fed.Payload, tier fedcore.Tier) func(*testing.B) {
	return func(b *testing.B) {
		k := len(uploads)
		encs := make([]*fedcore.Encoder, k)
		bufs := make([]fed.Payload, k)
		scratch := make([]fed.Payload, k)
		for i := range encs {
			encs[i] = fedcore.NewEncoder(fedcore.CodecConfig{Tier: tier})
		}
		agg := fed.FedAvg{}
		var arena fedcore.PayloadArena
		round := func() {
			for i := range uploads {
				dec, _, err := fedcore.DecodeFrame(encs[i].Encode(uploads[i]), nil, bufs[i])
				if err != nil {
					b.Fatal(err)
				}
				bufs[i] = dec
				scratch[i] = dec
			}
			agg.AggregateInto(scratch, &arena)
		}
		round()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
	}
}

// runFedAggregate measures the federation data plane and writes
// BENCH_FedAggregate.json: the pooled aggregation against the frozen
// seed-era baselines, the codec composite across quantization tiers with
// measured wire bytes, and the 104-client swarm round throughput with the
// codec on.
func runFedAggregate(bc benchConfig) error {
	res := fedAggResult{Name: "FedAggregate", Dim: fedAggDim}

	fmt.Printf("\nfederated aggregation (pooled FedAvg fast path, dim %d):\n", fedAggDim)
	t := trace.NewTable("K", "iters", "ns/op", "allocs/op", "baseline ns/op", "speedup")
	for _, k := range []int{8, 64, 256} {
		r := testing.Benchmark(benchFedAggOnly(fedAggUploads(k)))
		e := fedAggEntry{
			K:           k,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		}
		speedup := "-"
		if base := fedAggBaseline(k); base > 0 && e.NsPerOp > 0 {
			e.BaselineNsPerOp = base
			e.Speedup = base / e.NsPerOp
			speedup = fmt.Sprintf("%.2fx", e.Speedup)
		}
		res.Aggregate = append(res.Aggregate, e)
		t.AddRow(e.K, e.Iterations, e.NsPerOp, e.AllocsPerOp, e.BaselineNsPerOp, speedup)
	}
	fmt.Print(t.String())

	fmt.Println("\ndata plane with codec (K encodes + K decodes + aggregate; wire = uplink + downlink frames):")
	ct := trace.NewTable("K", "tier", "iters", "ns/op", "allocs/op", "wire B/round", "ratio")
	for _, k := range []int{8, 64, 256} {
		uploads := fedAggUploads(k)
		for _, tier := range []fedcore.Tier{fedcore.TierIdentity, fedcore.TierF32, fedcore.TierI16, fedcore.TierI8} {
			r := testing.Benchmark(benchFedDataPlane(uploads, tier))
			e := fedCodecEntry{
				K:                 k,
				Tier:              tier.String(),
				Iterations:        r.N,
				NsPerOp:           float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp:       r.AllocsPerOp(),
				WireBytesPerRound: int64(2 * k * fedcore.FrameLen(tier, fedAggDim)),
				RawBytesPerRound:  int64(2 * k * fedAggDim * 8),
			}
			e.CompressionRatio = float64(e.RawBytesPerRound) / float64(e.WireBytesPerRound)
			res.DataPlane = append(res.DataPlane, e)
			ct.AddRow(e.K, e.Tier, e.Iterations, e.NsPerOp, e.AllocsPerOp,
				e.WireBytesPerRound, fmt.Sprintf("%.2fx", e.CompressionRatio))
		}
	}
	fmt.Print(ct.String())

	swarm, err := runFedAggSwarm()
	if err != nil {
		return err
	}
	res.Swarm = swarm
	fmt.Printf("\nswarm throughput (%d clients, async loopback fednet, %s%s codec): %d rounds in %.2fs = %.2f rounds/s, %.2fx wire compression\n",
		swarm.Clients, swarm.Tier, map[bool]string{true: "+delta", false: ""}[swarm.Delta],
		swarm.Rounds, swarm.ElapsedSeconds, swarm.RoundsPerSecond, swarm.CompressionRatio)

	bc.writeJSON("BENCH_FedAggregate.json", res)
	return nil
}

// runFedAggSwarm drives the deterministic 104-client async swarm with the
// int8 delta codec on and reports committed-round throughput.
func runFedAggSwarm() (*fedSwarmThroughput, error) {
	codec := fedcore.CodecConfig{Tier: fedcore.TierI8, Delta: true}
	sres, err := fednet.RunSwarm(fednet.SwarmConfig{
		Clients: 104,
		K:       16,
		Buffer:  16,
		Rounds:  2,
		Tasks:   8,
		Seed:    42,
		Codec:   codec,
	})
	if err != nil {
		return nil, err
	}
	out := &fedSwarmThroughput{
		Clients:          104,
		Tier:             codec.Tier.String(),
		Delta:            codec.Delta,
		Rounds:           sres.Rounds,
		ElapsedSeconds:   sres.Elapsed.Seconds(),
		WireBytes:        sres.Comm.Bytes(),
		CompressionRatio: sres.Comm.CompressionRatio(),
		MeanReward:       sres.MeanReward,
	}
	if out.ElapsedSeconds > 0 {
		out.RoundsPerSecond = float64(out.Rounds) / out.ElapsedSeconds
	}
	return out, nil
}
