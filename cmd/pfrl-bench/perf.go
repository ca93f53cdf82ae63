package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/rl"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The perf experiment exercises the two hot loops of every figure in this
// repository — per-step policy inference and the PPO minibatch update — at
// the paper's model scale (≈538-feature observations, 9 placement actions,
// one 64-unit hidden layer) and reports wall time and allocation behaviour.
// It is the CLI twin of internal/rl's BenchmarkRolloutStep/BenchmarkPPOUpdate
// so the numbers quoted in DESIGN.md can be regenerated without the test
// harness.
const (
	perfStateDim = 538
	perfActions  = 9
	perfHorizon  = 64
	perfBuffer   = 256

	// ppoUpdateBaselineNs is the measured ns/op of BenchmarkPPOUpdate before
	// the batched update pipeline (per-call tape staging, closure-based
	// backward, unfused loss kernels), on the reference CI machine (Intel
	// Xeon 2.10 GHz). Frozen so BENCH_PPOUpdate.json pins the speedup.
	ppoUpdateBaselineNs = 119680675.0
)

// benchResult is the schema of the BENCH_<name>.json artifacts. Baseline and
// speedup are only set for benchmarks with a frozen pre-optimization number.
type benchResult struct {
	Name            string  `json:"name"`
	Iterations      int     `json:"iterations"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	StateDim        int     `json:"state_dim"`
	NumActions      int     `json:"num_actions"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup         float64 `json:"speedup_vs_baseline,omitempty"`
}

func perfAgent(seed int64) *rl.PPO {
	return rl.NewPPO(rl.DefaultConfig(perfStateDim, perfActions), rand.New(rand.NewSource(seed)))
}

func benchRolloutStep(b *testing.B) {
	env := rl.NewSyntheticEnv(perfStateDim, perfActions, perfHorizon, 1)
	agent := perfAgent(2)
	step := func(state []float64) []float64 {
		state = env.Observe(state)
		action, _ := agent.SelectAction(state)
		_ = agent.Value(state)
		_ = env.Step(action)
		if env.Done() {
			env.Reset()
		}
		return state
	}
	var state []float64
	for i := 0; i < 16; i++ {
		state = step(state)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state = step(state)
	}
}

func benchPPOUpdate(b *testing.B) {
	env := rl.NewSyntheticEnv(perfStateDim, perfActions, perfHorizon, 3)
	agent := perfAgent(4)
	var buf rl.Buffer
	for buf.Len() < perfBuffer {
		env.Reset()
		rl.CollectEpisode(env, agent, &buf)
	}
	agent.Update(&buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Update(&buf)
	}
}

func runPerf(bc benchConfig) error {
	fmt.Println("Performance: rollout fast path and pooled PPO update")
	fmt.Printf("model: %d features -> 64 -> %d actions, update over %d transitions\n",
		perfStateDim, perfActions, perfBuffer)
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"RolloutStep", benchRolloutStep},
		{"PPOUpdate", benchPPOUpdate},
	}
	t := trace.NewTable("benchmark", "iters", "ns/op", "allocs/op", "B/op", "speedup")
	for _, bench := range benches {
		r := testing.Benchmark(bench.fn)
		res := benchResult{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			StateDim:    perfStateDim,
			NumActions:  perfActions,
		}
		speedup := "-"
		if bench.name == "PPOUpdate" && res.NsPerOp > 0 {
			res.BaselineNsPerOp = ppoUpdateBaselineNs
			res.Speedup = ppoUpdateBaselineNs / res.NsPerOp
			speedup = fmt.Sprintf("%.2fx", res.Speedup)
		}
		t.AddRow(res.Name, res.Iterations, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, speedup)
		bc.writeBenchJSON(res)
	}
	fmt.Print(t.String())
	gets, hits := tensor.DefaultPool().Stats()
	if gets > 0 {
		fmt.Printf("tensor pool: %d gets, %d recycled (%.1f%% hit rate)\n",
			gets, hits, 100*float64(hits)/float64(gets))
	}
	if err := runEnvStep(bc); err != nil {
		return err
	}
	if err := runTrainPhases(bc); err != nil {
		return err
	}
	if err := runFedAggregate(bc); err != nil {
		return err
	}
	fmt.Println()
	return runClusterScale(bc)
}

// Simulator-core benchmark dimensions: the default 20-VM heterogeneous
// cluster (Table-3 capacity mix) scheduling a seeded Google-trace episode.
const (
	envStepVMs   = 20
	envStepTasks = 400
	// envStepBaselineNs is the measured ns/op of the same benchmark loop on
	// the pre-incremental engine (per-VM task maps scanned every slot, map
	// lookups per observed vCPU), on the reference CI machine (Intel Xeon
	// 2.10 GHz). Kept so BENCH_EnvStep.json pins the speedup trajectory.
	envStepBaselineNs = 2951.0
)

// envStepResult is the schema of the BENCH_EnvStep.json artifact.
type envStepResult struct {
	Name            string  `json:"name"`
	Iterations      int     `json:"iterations"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	VMs             int     `json:"vms"`
	Tasks           int     `json:"tasks"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
	Speedup         float64 `json:"speedup_vs_baseline"`
}

// envStepCluster mirrors internal/cloudsim's benchmark cluster: 20 VMs in
// the Table-3 capacity mix.
func envStepCluster() []cloudsim.VMSpec {
	var specs []cloudsim.VMSpec
	add := func(n, cpu int, mem float64) {
		for i := 0; i < n; i++ {
			specs = append(specs, cloudsim.VMSpec{CPU: cpu, Mem: mem})
		}
	}
	add(8, 8, 64)
	add(6, 16, 128)
	add(4, 32, 256)
	add(2, 64, 512)
	return specs
}

func benchEnvStep(b *testing.B) {
	specs := envStepCluster()
	rng := rand.New(rand.NewSource(1))
	tasks := cloudsim.ClampTasks(workload.SampleDataset(workload.Google, rng, envStepTasks), specs)
	env, err := cloudsim.NewEnv(cloudsim.DefaultConfig(specs), tasks)
	if err != nil {
		b.Fatal(err)
	}
	firstFit := func() int {
		head, ok := env.HeadTask()
		if !ok {
			return env.WaitAction()
		}
		for i, vm := range env.VMs() {
			if vm.Fits(head) {
				return i
			}
		}
		return env.WaitAction()
	}
	buf := make([]float64, env.StateDim())
	for !env.Done() { // warm episode: grow every internal buffer
		buf = env.Observe(buf)
		env.Step(firstFit())
	}
	env.Reset(tasks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = env.Observe(buf)
		env.Step(firstFit())
		if env.Done() {
			env.Reset(tasks)
		}
	}
}

// runEnvStep measures the simulator's per-decision hot path (Observe +
// first-fit choice + Step on the default 20-VM cluster) and records it next
// to the frozen pre-incremental-engine baseline.
func runEnvStep(bc benchConfig) error {
	r := testing.Benchmark(benchEnvStep)
	res := envStepResult{
		Name:            "EnvStep",
		Iterations:      r.N,
		NsPerOp:         float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:     r.AllocsPerOp(),
		BytesPerOp:      r.AllocedBytesPerOp(),
		VMs:             envStepVMs,
		Tasks:           envStepTasks,
		BaselineNsPerOp: envStepBaselineNs,
	}
	if res.NsPerOp > 0 {
		res.Speedup = envStepBaselineNs / res.NsPerOp
	}
	fmt.Printf("\nsimulator core (%d VMs, %d-task seeded episode):\n", res.VMs, res.Tasks)
	t := trace.NewTable("benchmark", "iters", "ns/op", "allocs/op", "baseline ns/op", "speedup")
	t.AddRow(res.Name, res.Iterations, res.NsPerOp, res.AllocsPerOp,
		res.BaselineNsPerOp, fmt.Sprintf("%.2fx", res.Speedup))
	fmt.Print(t.String())
	bc.writeJSON("BENCH_EnvStep.json", res)
	return nil
}

// phasesResult is the schema of the BENCH_TrainPhases.json artifact: the
// per-phase wall-clock breakdown of a small end-to-end federated run.
type phasesResult struct {
	Name             string  `json:"name"`
	Algorithm        string  `json:"algorithm"`
	ClientCount      int     `json:"clients"`
	Episodes         int     `json:"episodes"`
	RolloutSeconds   float64 `json:"rollout_seconds"`
	UpdateSeconds    float64 `json:"update_seconds"`
	AggregateSeconds float64 `json:"aggregate_seconds"`
	CommSeconds      float64 `json:"comm_seconds"`
	TotalSeconds     float64 `json:"total_seconds"`
}

// runTrainPhases measures where a small PFRL-DM training run spends its
// time, using the phase timers surfaced on core.TrainResult. The run is
// sequential so the process-wide timer deltas attribute exactly to it.
func runTrainPhases(bc benchConfig) error {
	cfg := core.DefaultExperiment(bc.seed)
	cfg.Specs = cfg.Specs[:4]
	cfg.TasksPerClient = 40
	cfg.Episodes = 6
	cfg.CommEvery = 2
	cfg.EpisodeStepCap = 5 * cfg.TasksPerClient
	cfg.Parallel = false
	res, err := core.Train(core.AlgPFRLDM, cfg)
	if err != nil {
		return err
	}
	p := res.Phases
	out := phasesResult{
		Name:             "TrainPhases",
		Algorithm:        res.Algorithm.String(),
		ClientCount:      len(cfg.Specs),
		Episodes:         cfg.Episodes,
		RolloutSeconds:   p.Rollout.Seconds(),
		UpdateSeconds:    p.Update.Seconds(),
		AggregateSeconds: p.Aggregate.Seconds(),
		CommSeconds:      p.Comm.Seconds(),
		TotalSeconds:     p.Total().Seconds(),
	}
	fmt.Printf("\nphase breakdown (%s, %d clients x %d episodes, sequential):\n",
		out.Algorithm, out.ClientCount, out.Episodes)
	t := trace.NewTable("phase", "seconds", "share")
	for _, row := range []struct {
		name string
		sec  float64
	}{
		{"rollout", out.RolloutSeconds},
		{"update", out.UpdateSeconds},
		{"aggregate", out.AggregateSeconds},
		{"comm", out.CommSeconds},
	} {
		share := 0.0
		if out.TotalSeconds > 0 {
			share = 100 * row.sec / out.TotalSeconds
		}
		t.AddRow(row.name, row.sec, fmt.Sprintf("%.1f%%", share))
	}
	fmt.Print(t.String())
	bc.writeJSON("BENCH_TrainPhases.json", out)
	return nil
}

// writeBenchJSON dumps one benchmark result as BENCH_<name>.json when
// -benchdir is set; errors are fatal like writeCSV's.
func (bc benchConfig) writeBenchJSON(res benchResult) {
	bc.writeJSON("BENCH_"+res.Name+".json", res)
}

// benchHost is the header every BENCH_*.json carries, so each number can be
// traced to the machine, toolchain and commit that produced it. The VCS
// fields come from the binary's build info, which `go build` stamps but
// `go run` does only with -buildvcs=true (as `make perf` passes).
type benchHost struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

func readBenchHost() benchHost {
	h := benchHost{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// writeJSON marshals v into -benchdir under the given filename, with the
// benchHost header spliced in as the object's first member.
func (bc benchConfig) writeJSON(filename string, v any) {
	if bc.benchDir == "" {
		return
	}
	host, err := json.Marshal(readBenchHost())
	if err != nil {
		log.Fatal(err)
	}
	body, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	if len(body) < 3 || body[0] != '{' {
		log.Fatalf("%s: result must be a non-empty JSON object, got %s", filename, body)
	}
	var data bytes.Buffer
	withHost := append(append([]byte(`{"host":`), host...), ',')
	if err := json.Indent(&data, append(withHost, body[1:]...), "", "  "); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(bc.benchDir, filename)
	if err := os.WriteFile(path, append(data.Bytes(), '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(wrote %s)\n", path)
}
