// Package core orchestrates the PFRL-DM system end to end: it wires the
// cloud-scheduling environments (internal/cloudsim), the workload models
// (internal/workload), the PPO / dual-critic agents (internal/rl), and the
// federated layer (internal/fed) into the experiments reported in the
// paper. Every figure and table in the evaluation has a runner here; the
// bench harness and the CLI tools are thin wrappers around this package.
package core

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/cloudsim"
	"repro/internal/fed"
	"repro/internal/fedcore"
	"repro/internal/obs"
	"repro/internal/rl"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Algorithm selects one of the compared training schemes (§5.1).
type Algorithm int

const (
	// AlgPPO trains each client independently (the non-federated baseline).
	AlgPPO Algorithm = iota
	// AlgFedAvg federates full actor+critic models with plain averaging.
	AlgFedAvg
	// AlgMFPO federates full models through the server-momentum aggregator
	// standing in for MFPO.
	AlgMFPO
	// AlgPFRLDM is the paper's method: dual-critic clients, public-critic
	// transport, multi-head-attention personalization.
	AlgPFRLDM
	// AlgFedProx is an extension baseline: FedAvg plus client-side proximal
	// regularization (Li et al., MLSys 2020).
	AlgFedProx
	// AlgSecureFedAvg is an extension baseline: FedAvg computed under
	// simulated pairwise-masked secure aggregation (§3.4 threat model).
	AlgSecureFedAvg
)

// String returns the algorithm's display name.
func (a Algorithm) String() string {
	switch a {
	case AlgPPO:
		return "PPO"
	case AlgFedAvg:
		return "FedAvg"
	case AlgMFPO:
		return "MFPO"
	case AlgPFRLDM:
		return "PFRL-DM"
	case AlgFedProx:
		return "FedProx"
	case AlgSecureFedAvg:
		return "SecureFedAvg"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// AllAlgorithms lists the paper's four compared schemes in presentation
// order.
func AllAlgorithms() []Algorithm {
	return []Algorithm{AlgPFRLDM, AlgMFPO, AlgFedAvg, AlgPPO}
}

// ExtensionAlgorithms lists the additional baselines built on top of the
// paper (not part of its evaluation).
func ExtensionAlgorithms() []Algorithm {
	return []Algorithm{AlgFedProx, AlgSecureFedAvg}
}

// ClientSpec is one client's environment definition: its cluster and the
// workload dataset it draws tasks from (Tables 2 and 3).
type ClientSpec struct {
	Name    string
	VMs     []cloudsim.VMSpec
	Dataset workload.DatasetID
	// Workload, when non-nil, overrides Dataset: the client draws its tasks
	// from the declarative spec (workload.ParseSpec / workload.PresetSpec)
	// instead of a builtin model, enabling multi-tenant mixes and SLO-tagged
	// traffic per client.
	Workload *workload.Spec
}

// Table2Specs returns the 4-client exploratory setup of Table 2.
func Table2Specs() []ClientSpec {
	return []ClientSpec{
		{Name: "Client1", VMs: vms(16, 128, 4, 32, 256, 1), Dataset: workload.Google},
		{Name: "Client2", VMs: vms(32, 256, 3), Dataset: workload.Alibaba2017},
		{Name: "Client3", VMs: vms(16, 128, 2, 32, 256, 2), Dataset: workload.HPCHF},
		{Name: "Client4", VMs: vms(16, 128, 3, 32, 256, 2), Dataset: workload.KVM2019},
	}
}

// Table3Specs returns the 10-client main evaluation setup of Table 3.
func Table3Specs() []ClientSpec {
	return []ClientSpec{
		{Name: "Client1", VMs: vms(8, 64, 1, 16, 128, 4, 64, 512, 2), Dataset: workload.Google},
		{Name: "Client2", VMs: vms(8, 64, 3, 32, 128, 3, 64, 512, 1), Dataset: workload.Alibaba2017},
		{Name: "Client3", VMs: vms(8, 64, 3, 32, 256, 2, 64, 512, 2), Dataset: workload.Alibaba2018},
		{Name: "Client4", VMs: vms(8, 64, 2, 32, 256, 3, 40, 256, 2), Dataset: workload.HPCKS},
		{Name: "Client5", VMs: vms(8, 64, 1, 48, 256, 2, 64, 512, 3), Dataset: workload.HPCHF},
		{Name: "Client6", VMs: vms(16, 128, 1, 32, 256, 3, 40, 256, 3), Dataset: workload.HPCWZ},
		{Name: "Client7", VMs: vms(16, 128, 1, 40, 256, 3, 32, 200, 3), Dataset: workload.KVM2019},
		{Name: "Client8", VMs: vms(16, 128, 4, 64, 512, 1), Dataset: workload.KVM2020},
		{Name: "Client9", VMs: vms(8, 64, 2, 16, 128, 2, 64, 512, 1), Dataset: workload.CERITSC},
		{Name: "Client10", VMs: vms(8, 128, 2, 16, 128, 4), Dataset: workload.K8S},
	}
}

// vms expands (cpu, mem, count) triples into a VM list.
func vms(triples ...int) []cloudsim.VMSpec {
	if len(triples)%3 != 0 {
		panic("core: vms wants (cpu, mem, count) triples")
	}
	var out []cloudsim.VMSpec
	for i := 0; i < len(triples); i += 3 {
		for c := 0; c < triples[i+2]; c++ {
			out = append(out, cloudsim.VMSpec{CPU: triples[i], Mem: float64(triples[i+1])})
		}
	}
	return out
}

// ScaleSpecs divides every VM's capacity by scale (keeping at least 1 vCPU
// and 0.5 GiB), shrinking the observation space so scaled-down experiment
// suites run quickly while preserving the relative heterogeneity between
// clients. scale <= 1 returns a deep copy.
func ScaleSpecs(specs []ClientSpec, scale int) []ClientSpec {
	out := make([]ClientSpec, len(specs))
	for i, s := range specs {
		ns := s
		ns.VMs = make([]cloudsim.VMSpec, len(s.VMs))
		for j, v := range s.VMs {
			if scale > 1 {
				v.CPU = max(1, v.CPU/scale)
				v.Mem = maxf(0.5, v.Mem/float64(scale))
			}
			ns.VMs[j] = v
		}
		out[i] = ns
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// FederationCaps computes the federation-wide observation constants shared
// by every client (§4.1: all agents must have identical network shapes, so
// smaller clusters are padded with voids).
type FederationCaps struct {
	PadVMs   int
	PadVCPUs int
	MaxCPU   int
	MaxMem   float64
}

// CapsFor derives the caps from a set of client specs.
func CapsFor(specs []ClientSpec) FederationCaps {
	caps := FederationCaps{PadVMs: 1, PadVCPUs: 1, MaxCPU: 1, MaxMem: 1}
	for _, s := range specs {
		if len(s.VMs) > caps.PadVMs {
			caps.PadVMs = len(s.VMs)
		}
		for _, v := range s.VMs {
			if v.CPU > caps.PadVCPUs {
				caps.PadVCPUs = v.CPU
				caps.MaxCPU = v.CPU
			}
			if v.Mem > caps.MaxMem {
				caps.MaxMem = v.Mem
			}
		}
	}
	return caps
}

// EnvConfig builds one client's cloudsim configuration under the
// federation caps.
func (caps FederationCaps) EnvConfig(spec ClientSpec) cloudsim.Config {
	cfg := cloudsim.DefaultConfig(spec.VMs)
	cfg.PadVMs = caps.PadVMs
	cfg.PadVCPUs = caps.PadVCPUs
	cfg.MaxCPU = caps.MaxCPU
	cfg.MaxMem = caps.MaxMem
	return cfg
}

// ExperimentConfig parameterizes a training run. The zero value is not
// usable; start from DefaultExperiment.
type ExperimentConfig struct {
	Specs          []ClientSpec
	TasksPerClient int
	TrainFrac      float64
	Episodes       int
	CommEvery      int
	// K is the number of clients aggregated per round (0 means N/2,
	// the paper's setting for PFRL-DM; FedAvg/MFPO always use all N).
	K        int
	Seed     int64
	Parallel bool
	// ActorLR / CriticLR override the paper defaults when non-zero (the
	// scaled-down suites use slightly larger rates to converge in fewer
	// episodes).
	ActorLR  float64
	CriticLR float64
	// EpisodeStepCap bounds decision steps per episode (0 = cloudsim
	// default).
	EpisodeStepCap int
	// MFPOBeta is the server-momentum coefficient for AlgMFPO
	// (0 means the default, 0.5).
	MFPOBeta float64
	// Faults, when active, wraps the federation transport in a seeded
	// fault injector (fed.FaultyTransport) — the chaos-testing knob for
	// robustness experiments. Ignored by AlgPPO (no transport).
	Faults fed.FaultSpec
	// Async switches the federation to buffered asynchronous aggregation
	// with staleness-weighted mixing (fedcore.AsyncEngine). Ignored by
	// AlgPPO (no federation).
	Async bool
	// StalenessBound caps accepted staleness in async mode (negative =
	// unbounded, zero = fresh only — with Buffer = K this degrades to the
	// sync engine bit-identically).
	StalenessBound int
	// Buffer is the async commit trigger B; <= 0 resolves to K.
	Buffer int
	// SLOWaitCost / SLOWaitTarget are forwarded into every client's
	// cloudsim.Config.Objectives, enabling per-service-class reward shaping
	// and violation accounting. All-zero (the default) reproduces the
	// unshaped paper reward exactly.
	SLOWaitCost   [workload.NumSLOClasses]float64
	SLOWaitTarget [workload.NumSLOClasses]int
	// Codec configures the federation's payload wire codec: quantization
	// tier and delta encoding (§ communication cost). The zero value is the
	// lossless identity tier, which reproduces uncompressed runs bit-exactly.
	// Ignored by AlgPPO (no federation).
	Codec fedcore.CodecConfig
}

// DefaultExperiment returns the scaled-down counterpart of the paper's main
// setup: Table 3 clients at 1/4 capacity, 120 tasks per client, 40
// episodes with communication every 5 — small enough for a laptop, large
// enough to show every qualitative result. Paper scale is recovered with
// Specs: Table3Specs(), TasksPerClient: 3500, Episodes: 500, CommEvery: 25.
func DefaultExperiment(seed int64) ExperimentConfig {
	return ExperimentConfig{
		Specs:          ScaleSpecs(Table3Specs(), 4),
		TasksPerClient: 120,
		TrainFrac:      0.6,
		Episodes:       40,
		CommEvery:      5,
		Seed:           seed,
		Parallel:       true,
		ActorLR:        1e-3,
		CriticLR:       1e-3,
		// Bound episodes: an untrained policy would otherwise burn tens of
		// thousands of wait steps before the last task completes.
		EpisodeStepCap: 5 * 120,
	}
}

// rlConfig builds the agent hyperparameters for a state/action space.
func (c ExperimentConfig) rlConfig(stateDim, numActions int) rl.Config {
	cfg := rl.DefaultConfig(stateDim, numActions)
	if c.ActorLR > 0 {
		cfg.ActorLR = c.ActorLR
	}
	if c.CriticLR > 0 {
		cfg.CriticLR = c.CriticLR
	}
	return cfg
}

// ClientData bundles one client's sampled train/test splits.
type ClientData struct {
	Spec  ClientSpec
	Train []workload.Task
	Test  []workload.Task
}

// SampleClientData draws each client's tasks from its dataset model (3500
// per client at paper scale, §5.1) or, when ClientSpec.Workload is set, from
// its compiled declarative spec, clamps them to the client's cluster, and
// splits train/test. It fails only when a client's workload spec does not
// compile.
func SampleClientData(cfg ExperimentConfig) ([]ClientData, error) {
	out := make([]ClientData, len(cfg.Specs))
	for i, spec := range cfg.Specs {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		var tasks []workload.Task
		if spec.Workload != nil {
			comp, err := spec.Workload.Compile()
			if err != nil {
				return nil, fmt.Errorf("core: client %d (%s): %w", i, spec.Name, err)
			}
			tasks = comp.Sample(rng, cfg.TasksPerClient)
		} else {
			tasks = workload.SampleDataset(spec.Dataset, rng, cfg.TasksPerClient)
		}
		tasks = cloudsim.ClampTasks(tasks, spec.VMs)
		train, test := workload.Split(tasks, cfg.TrainFrac)
		out[i] = ClientData{Spec: spec, Train: train, Test: test}
	}
	return out, nil
}

// TrainResult is the outcome of one training run.
type TrainResult struct {
	Algorithm Algorithm
	Clients   []*fed.Client
	// Federation is nil for AlgPPO (independent training).
	Federation *fed.Federation
	// MeanCurve is the across-client mean of per-episode total rewards
	// (the paper's Figure 8/15 convergence series).
	MeanCurve []float64
	Data      []ClientData
	// PoolGets and PoolRecycled record the shared tensor pool's traffic
	// (requests and free-list hits) during this Train call — the
	// observability hook behind the perf experiment's hit-rate readout.
	// Concurrent Train calls share the process-wide pool, so attribution is
	// exact only for sequential runs (how the bench harness runs them).
	PoolGets, PoolRecycled int64
	// Participation is the number of uploads aggregated in each round
	// (equals K every round unless faults dropped clients out).
	Participation []int
	// Faults counts the transport faults injected during the run (zero
	// unless ExperimentConfig.Faults was active).
	Faults fed.FaultStats
	// Phases breaks the run's wall-clock down by pipeline stage
	// (rollout/update/aggregate/comm), diffed from the process-wide phase
	// timers like the pool stats: with Parallel clients the totals sum time
	// across goroutines, and attribution is exact only for sequential Train
	// calls (how the bench harness runs them).
	Phases obs.PhaseTimes
	// Comm is the federation's communication ledger: scalar counts plus
	// measured wire bytes of every codec frame (zero for AlgPPO).
	Comm fed.CommStats
	// CompressionRatio is raw payload bytes over measured wire bytes for
	// the whole run — 1.0 under the identity tier, >1 under quantization
	// (0 for AlgPPO, which moves no payloads).
	CompressionRatio float64
}

// recordPoolStats fills the pool-traffic fields from a Stats snapshot taken
// when Train started.
func (r *TrainResult) recordPoolStats(startGets, startHits int64) {
	gets, hits := tensor.DefaultPool().Stats()
	r.PoolGets = gets - startGets
	r.PoolRecycled = hits - startHits
}

// BuildClients constructs the federated clients (environments + agents)
// for an algorithm.
func BuildClients(alg Algorithm, cfg ExperimentConfig, data []ClientData) ([]*fed.Client, error) {
	caps := CapsFor(cfg.Specs)
	clients := make([]*fed.Client, len(data))
	for i, d := range data {
		envCfg := caps.EnvConfig(d.Spec)
		if cfg.EpisodeStepCap > 0 {
			envCfg.MaxSteps = cfg.EpisodeStepCap
		}
		envCfg.Objectives.SLOWaitCost = cfg.SLOWaitCost
		envCfg.Objectives.SLOWaitTarget = cfg.SLOWaitTarget
		dim := cloudsim.StateDim(envCfg)
		actions := cloudsim.NumActions(envCfg)
		agentRng := rand.New(rand.NewSource(cfg.Seed + 104729*int64(i+1)))
		var agent rl.Agent
		if alg == AlgPFRLDM {
			agent = rl.NewDualCriticPPO(cfg.rlConfig(dim, actions), agentRng)
		} else {
			agent = rl.NewPPO(cfg.rlConfig(dim, actions), agentRng)
		}
		c, err := fed.NewClient(i, d.Spec.Name, envCfg, d.Train, agent)
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	return clients, nil
}

// Train runs one full training under the given algorithm.
func Train(alg Algorithm, cfg ExperimentConfig) (*TrainResult, error) {
	data, err := SampleClientData(cfg)
	if err != nil {
		return nil, err
	}
	clients, err := BuildClients(alg, cfg, data)
	if err != nil {
		return nil, err
	}
	res := &TrainResult{Algorithm: alg, Clients: clients, Data: data}
	startGets, startHits := tensor.DefaultPool().Stats()
	phaseStart := obs.GlobalTimers().Snapshot()

	if alg == AlgPPO {
		trainIndependent(clients, cfg.Episodes, cfg.Parallel)
		res.MeanCurve = fed.MeanRewardCurve(clients)
		res.recordPoolStats(startGets, startHits)
		res.Phases = obs.GlobalTimers().Snapshot().Sub(phaseStart)
		return res, nil
	}

	var transport fed.Transport
	var agg fed.Aggregator
	switch alg {
	case AlgFedAvg:
		transport, agg = fed.ActorCriticTransport{}, fed.FedAvg{}
	case AlgMFPO:
		beta := cfg.MFPOBeta
		if beta == 0 {
			beta = 0.5
		}
		transport, agg = fed.ActorCriticTransport{}, fed.NewMomentum(beta)
	case AlgFedProx:
		transport, agg = fed.FedProxTransport{Mu: 0.01}, fed.FedAvg{}
	case AlgSecureFedAvg:
		transport, agg = fed.ActorCriticTransport{}, fed.NewSecureFedAvg(cfg.Seed)
	case AlgPFRLDM:
		transport, agg = fed.PublicCriticTransport{}, fed.NewAttention(cfg.Seed)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", alg)
	}
	// cfg.K wins when set; otherwise the baselines aggregate everyone and
	// PFRL-DM uses the paper's K = N/2 default. The engine clamps to [1, N].
	k := cfg.K
	if k <= 0 {
		k = len(clients)
		if alg == AlgPFRLDM {
			k = fedcore.DefaultK(len(clients))
		}
	}
	f, err := fed.New(clients, transport, agg, fed.Options{
		K: k, CommEvery: cfg.CommEvery, Seed: cfg.Seed, Parallel: cfg.Parallel,
		Async: cfg.Async, StalenessBound: cfg.StalenessBound, Buffer: cfg.Buffer,
		Codec: cfg.Codec,
	})
	if err != nil {
		return nil, err
	}
	// Faults model network flakiness during training rounds; the initial
	// provisioning sync in fed.New stays clean, so even an always-drop spec
	// yields a (degenerate) run instead of a setup failure.
	var faulty *fed.FaultyTransport
	if cfg.Faults.Active() {
		faulty = fed.NewFaultyTransport(transport, cfg.Faults)
		f.Transport = faulty
	}
	if err := f.RunEpisodes(cfg.Episodes); err != nil {
		return nil, err
	}
	res.Federation = f
	res.Participation = make([]int, len(f.Reports))
	for i, rep := range f.Reports {
		res.Participation[i] = rep.Participants
	}
	if faulty != nil {
		res.Faults = faulty.Stats()
	}
	res.MeanCurve = fed.MeanRewardCurve(clients)
	res.recordPoolStats(startGets, startHits)
	res.Phases = obs.GlobalTimers().Snapshot().Sub(phaseStart)
	res.Comm = f.Comm()
	res.CompressionRatio = res.Comm.CompressionRatio()
	return res, nil
}

// trainIndependent trains clients without any federation.
func trainIndependent(clients []*fed.Client, episodes int, parallel bool) {
	if !parallel {
		for _, c := range clients {
			c.TrainEpisodes(episodes)
		}
		return
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *fed.Client) {
			defer wg.Done()
			c.TrainEpisodes(episodes)
		}(c)
	}
	wg.Wait()
}
