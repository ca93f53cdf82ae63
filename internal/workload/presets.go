package workload

import (
	"bytes"
	"embed"
	"fmt"
	"strings"
)

// The ten builtin datasets, shipped as declarative preset specs: these
// files are the only definition of the datasets, and Lookup compiles them.
// Their sampled task streams are pinned by frozen digests
// (TestPresetDigestsGolden). The shapes follow the paper's
// characterization (Figs 2–5, Table 1):
//
//   - Google 2011: overwhelmingly tiny requests (<1–2 cores), sub-minute to
//     minutes runtimes, very high and bursty arrival rate.
//   - Alibaba-2017/2018: co-located batch+service mix; small-to-mid
//     requests, moderate runtimes; 2018 skews larger and longer.
//   - HPC-KS/HF/WZ: few large parallel jobs; multi-core requests,
//     long runtimes, low arrival rates. The three centers differ in scale
//     (Table 1: 8–40 CPUs, up to ~990 GiB memory nodes).
//   - KVM-2019/2020: education-project VMs on OpenStack; mid requests,
//     strongly diurnal arrivals; 2020 runs somewhat larger instances.
//   - CERIT-SC: mixed scientific cloud; broad request spread, heavy-tailed
//     runtimes.
//   - K8S: small containers (fractions of cores rounded up to 1–4),
//     short-to-mid runtimes with a heavy tail, high arrival rate.
//
// Service classes reflect each source's tenant expectations: the HPC
// centers and the scientific cloud submit best-effort batch jobs, the
// cloud/VM traces run standard interactive services, and the Kubernetes
// containers are latency-critical.
//
//go:embed specs/*.json
var presetFS embed.FS

// presetFileName maps a dataset to its shipped spec file.
func presetFileName(id DatasetID) string {
	return "specs/" + strings.ToLower(id.String()) + ".json"
}

// PresetSpecJSON returns the raw shipped preset spec for a builtin dataset.
func PresetSpecJSON(id DatasetID) ([]byte, error) {
	if id < 0 || int(id) >= NumDatasets {
		return nil, fmt.Errorf("workload: no preset spec for dataset %v", id)
	}
	b, err := presetFS.ReadFile(presetFileName(id))
	if err != nil {
		return nil, fmt.Errorf("workload: preset %s: %w", id, err)
	}
	return b, nil
}

// PresetSpec parses and validates the shipped preset spec for a dataset.
func PresetSpec(id DatasetID) (*Spec, error) {
	raw, err := PresetSpecJSON(id)
	if err != nil {
		return nil, err
	}
	s, err := ParseSpec(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("workload: preset %s: %w", id, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("workload: preset %s: %w", id, err)
	}
	return s, nil
}

// MachineSpec mirrors one row of the paper's Table 1 (machine specifications
// of the source clusters).
type MachineSpec struct {
	Dataset  string
	CPUs     string
	MemGiB   string
	Nodes    int
	Platform string
}

// Table1 reproduces the paper's Table 1 verbatim.
func Table1() []MachineSpec {
	return []MachineSpec{
		{"Google", "20~24", "7~62", 6, ""},
		{"KVM-2019", "48", "94~127", 1551, "OpenStack"},
		{"KVM-2020", "40", "62~63", 101, "OpenStack"},
		{"K8S", "128", "512", 20, "Kubernetes"},
		{"CERIT-SC (a)", "8", "64", 18, "Grid-workers"},
		{"CERIT-SC (b)", "8", "117", 33, "Grid-workers"},
		{"CERIT-SC (c)", "16", "117", 113, "Grid-workers"},
		{"HPC (a)", "40", "232~488", 36, ""},
		{"HPC (b)", "40", "944~990", 28, ""},
		{"Alibaba (a)", "64", "512", 798, "Alibaba PAI"},
		{"Alibaba (b)", "96", "512", 497, "Alibaba PAI"},
		{"Alibaba (c)", "96", "512", 280, "Alibaba PAI"},
		{"Alibaba (d)", "96", "384", 135, "Alibaba PAI"},
		{"Alibaba (e)", "96", "512/384", 104, "Alibaba PAI"},
		{"Alibaba (f)", "96", "512", 83, "Alibaba PAI"},
	}
}
