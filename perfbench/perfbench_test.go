package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/obs"
	"repro/internal/rl"
	wl "repro/internal/workload"
)

// truncatedClient builds one PPO client whose episodes all end on the step
// cap, so its learning depends on the truncation bootstrap.
func truncatedClient(t *testing.T) *fed.Client {
	t.Helper()
	cfg := experiment(3, sizes{clients: 1, tasks: 40, episodes: 30, commEvery: 1, stepCap: 10})
	data, err := core.SampleClientData(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clients, err := core.BuildClients(core.AlgPPO, cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	return clients[0]
}

// hiddenTruncation is a wrapper that forgets to forward rl.Truncator: the
// embedded interface promotes only rl.Environment's methods.
type hiddenTruncation struct {
	rl.Environment
	env   *cloudsim.Env
	tasks []wl.Task
}

func (h hiddenTruncation) Begin() { h.env.Reset(h.tasks) }

func TestEnvWrapperForwardsTruncation(t *testing.T) {
	const episodes = 30
	plain := truncatedClient(t)
	plain.TrainEpisodes(episodes)
	if !plain.LastBuf.Steps()[plain.LastBuf.Len()-1].Truncated {
		t.Fatal("the case must end its episodes on the step cap")
	}

	traced := truncatedClient(t)
	tr := newTracer()
	tr.use(tr.attach([]*fed.Client{traced}))
	obs.SetSink(tr)
	tr.startRun()
	traced.TrainEpisodes(episodes)
	obs.SetSink(nil)
	if !reflect.DeepEqual(plain.Rewards, traced.Rewards) {
		t.Fatalf("traced curve %v, untraced %v", traced.Rewards, plain.Rewards)
	}
	if ct := tr.clients[0]; ct.unmatched != 0 || ct.steps != int64(episodes*10) {
		t.Fatalf("timeline saw %d steps, %d unmatched episodes", ct.steps, ct.unmatched)
	}

	// The control: a wrapper that drops Truncated changes the curve, so the
	// equality above is evidence that tracedEnv forwards it.
	dropped := truncatedClient(t)
	dropped.TrainEnv = hiddenTruncation{Environment: dropped.Env, env: dropped.Env, tasks: dropped.Tasks}
	dropped.TrainEpisodes(episodes)
	if reflect.DeepEqual(plain.Rewards, dropped.Rewards) {
		t.Fatal("dropping Truncated left the curve unchanged; the case does not test forwarding")
	}
}

func TestEnvWrapperForwardsFeasibleActions(t *testing.T) {
	c := truncatedClient(t)
	tr := newTracer()
	tr.attach([]*fed.Client{c})
	env := c.TrainEnv.(*tracedEnv)
	env.Begin()
	for !env.Done() {
		want := append([]bool(nil), c.Env.FeasibleActions()...)
		if got := env.FeasibleActions(); !reflect.DeepEqual(got, want) {
			t.Fatalf("feasible actions %v, env says %v", got, want)
		}
		env.Step(len(want) - 1)
	}
	if env.StateDim() != c.Env.StateDim() || env.NumActions() != c.Env.NumActions() {
		t.Fatal("shape queries not forwarded")
	}
}

// onlyAggregate has no pooled path.
type onlyAggregate struct{}

func (onlyAggregate) Name() string { return "only-aggregate" }
func (onlyAggregate) Aggregate(u []fed.Payload) ([]fed.Payload, fed.Payload) {
	return fed.FedAvg{}.Aggregate(u)
}

func TestAggregatorWrapperKeepsPooledPath(t *testing.T) {
	const k, dim = 4, 2048
	rng := rand.New(rand.NewSource(17))
	uploads := make([]fed.Payload, k)
	for i := range uploads {
		uploads[i] = make(fed.Payload, dim)
		for j := range uploads[i] {
			uploads[i][j] = rng.NormFloat64()
		}
	}
	prev := make(fed.Payload, dim)
	tr := newTracer()
	tr.startRun()
	for _, tc := range []struct {
		name      string
		agg, same fed.Aggregator
	}{
		{"FedAvg", fed.FedAvg{}, fed.FedAvg{}},
		{"Momentum", fed.NewMomentum(0.9), fed.NewMomentum(0.9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wrapped, err := traceAggregator(tc.agg, tr)
			if err != nil {
				t.Fatal(err)
			}
			var arena, plainArena fedcore.PayloadArena
			for r := 0; r < 3; r++ {
				_, g := fedcore.AggregatePartialInto(wrapped, uploads, prev, &arena)
				_, want := fedcore.AggregatePartialInto(tc.same, uploads, prev, &plainArena)
				if !reflect.DeepEqual(g, want) {
					t.Fatalf("round %d: wrapped global differs", r)
				}
			}
			before := len(tr.spans)
			if n := testing.AllocsPerRun(20, func() {
				fedcore.AggregatePartialInto(wrapped, uploads, prev, &arena)
			}); n != 0 {
				t.Fatalf("warm round through the wrapper allocates %v/op; want 0", n)
			}
			if len(tr.spans) == before {
				t.Fatal("the wrapper recorded no aggregation")
			}
		})
	}
	if _, err := traceAggregator(onlyAggregate{}, tr); err == nil {
		t.Fatal("an aggregator without AggregateInto must be refused")
	}
}

// TestTinyWorkloads runs a small version of every workload untraced and
// traced, with all of the benchmark's output checks.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range []workload{fig15(fig15Tiny), fedround(fedroundTiny), wire(wireTiny)} {
		t.Run(w.name, func(t *testing.T) {
			b := bench{w: w, seed: devSeed, hdr: makeHeader(w.name, devSeed, 0), out: io.Discard}
			res := b.measure(true, t.TempDir())
			if !res.Correct || len(b.fails) > 0 {
				t.Fatalf("checks failed: %v", b.fails)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for k, v := range b.e2e {
				if v.Value == 0 || math.IsNaN(v.Value) {
					t.Errorf("end-to-end %s = %v", k, v.Value)
				}
			}
			for _, k := range []string{"rl.update_s", "rl.infer_s", "cloudsim.step_s", "ledger.total_s"} {
				if b.layer[k].Value <= 0 {
					t.Errorf("per-layer %s = %v", k, b.layer[k].Value)
				}
			}
		})
	}
}

// TestMetricsMatchBenchmarkFile keeps BENCHMARK.json and the emitted metric
// sets in step, names and units both.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var listed, names []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if !reflect.DeepEqual(listed, names) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", listed, names)
	}
	b := bench{w: wire(wireTiny), seed: devSeed, hdr: makeHeader("wire", devSeed, 0), out: io.Discard}
	if res := b.measure(true, t.TempDir()); !res.Correct {
		t.Fatalf("checks failed: %v", b.fails)
	}
	for _, c := range []struct {
		what   string
		listed []struct{ Name, Unit string }
		got    map[string]metric
	}{{"end_to_end", spec.EndToEnd, b.e2e}, {"per_layer", spec.PerLayer, b.layer}} {
		if len(c.listed) != len(c.got) {
			t.Errorf("%s lists %d metrics, the benchmark emits %d", c.what, len(c.listed), len(c.got))
		}
		for _, m := range c.listed {
			if got, ok := c.got[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s %s (%s): emitted %+v, present %v", c.what, m.Name, m.Unit, got, ok)
			}
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 48)
	for i := range xs {
		xs[i] = float64(48 - i)
	}
	if got := percentile(xs, 0.75); got != 36 {
		t.Fatalf("p75 of 1..48 = %v, want 36", got)
	}
	if got := beyond(48, 0.75); got != 12 {
		t.Fatalf("beyond(48, p75) = %d, want 12", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	for _, w := range workloads {
		perPass := map[string]int{"fig15": 12, "fedround": 40, "wire": wireFull.requests}[w.name]
		if n := beyond(w.minPasses*perPass, w.tail); n < 10 {
			t.Errorf("%s: p%g has only %d samples beyond it at the minimum pass count", w.name, 100*w.tail, n)
		}
	}
}
