package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// presetDigestSeeds and presetDigestTasks size the frozen preset digests.
var presetDigestSeeds = []int64{1, 7, 42}

const presetDigestTasks = 300

// taskDigest is the SHA-256 of a task sequence: every field of every task
// in declaration order as a little-endian int64, with Mem as its IEEE-754
// bits, so any change to any sampled bit changes the digest.
func taskDigest(tasks []Task) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, t := range tasks {
		put(int64(t.ID))
		put(int64(t.Arrival))
		put(int64(t.CPU))
		put(int64(math.Float64bits(t.Mem)))
		put(int64(t.Duration))
		put(int64(t.Source))
		put(int64(t.SLO))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// presetDigests are the frozen task streams of the ten datasets, one digest
// per seed in presetDigestSeeds, recorded from the original Go model table.
var presetDigests = map[DatasetID][3]string{
	Google:      {"137a7de71272a08b98e6fb120d1a7a75b9872395a74b0529fbc3be8ad8ba1f9d", "38c3be252b0d877b3f9acd587d9706c414ff460256bb185de4f7aad12b1be8a7", "0f427d98fc26c7b516339bd02c9e5a815995bd1b68eddcda5fa71de8289ff8ab"},
	Alibaba2017: {"0f235b0bbfc1fe1eef6eeead7e1351423b9063b088eaeab00cf9a06562f778ee", "284ffe9196344a907396555864216e22eccdbbc4781e9fb4d39a5e8a41cc0e84", "48bf24c3d7b4f8317e2d014f0061e1ad9a2c80f3ffaadee11870083c8ef3c855"},
	Alibaba2018: {"fe2d08db0b2cda7543825f93021bc1ff00e3a37ec2a08c689c01d49ec9614243", "9b7729be533cf8b27f2fcff323c268430bb4050f4429cd98a82490ee2d1d0955", "7baa0797662246d1bad55dfdbca846607d80f8b94848851db0c805f4a54261ec"},
	HPCKS:       {"66de1ec8fcef1cd766c1881f7186c9dddddb17854970ff6b070015266f9d52e9", "18a164b273e53326d34f8760b1c8cfec4198b0ac562128ce86ffc7686ec21466", "9888ff7a1c7ad4d6c24b01ecc88116ca19ef834103349ccad7b22c6ec300e075"},
	HPCHF:       {"2dd7230e2ecdd4aae59c5f2668500b3acede8b87843f79f1be7622c34612d74a", "715cca19cd74646c2d5c748ead6741126b4a713bed0fbe20e3b21929fad66f88", "6dbc69a7952e3257e5c7b0c46099e305d72cf3d8e8bf574d411e663b64d8295a"},
	HPCWZ:       {"fd79ac096bb95df09d16932762709a19adfe3eb3ce888c9d9020b3c7df57b106", "7e37f3de12a8f3b6f50b5fd097a2dc52ffd6799932b5d629e5c1b0d6f6adbebc", "2a0b58be0913ebcbe15b99c9d78ee8c8ef2bd4dba31d51b304648f8a3f19aea5"},
	KVM2019:     {"7083654a8fb0dbf2533f6c7444ee084d2ce52a2ecee521258b4a5fca3db23b82", "e410988535d03392d220dd0f604d75e3c5599813821c9a73acd541e6e58dcb16", "040484d049da902f0f0f1bce8587783e1919d42b61c6de6e8c58c0dfbb1644bb"},
	KVM2020:     {"82ee42223025655f447f7797cdbcd5888950024258f63b3a6f0bf73750e279c9", "8a663c517889c14e63a33f9f9916d68eb742173e367a78a97d01f7cae283de47", "f91dce74038b105ec9a334953d94be845a2b01e4f14db9dc6925f3a325c2b639"},
	CERITSC:     {"2d74f61522e56e91f062633e82c431d2eadb11dd0edb2fa42d1894342b6d646c", "a6aa5d9b87fa2c0e3f6bf189a2327bd89f515fc8acaf7a6fbdfd18e1a6e6d622", "6cc9454baae82750d41cf925670496994bef847a8ffabbd24845c4ea5cc38d25"},
	K8S:         {"377ae48a3f2db97accbf207c1f5fb637131840eb50466904982bfe86890c9a6a", "87e09f809c8bd0f3eba37e383161c9e68ec52dddd9380b2103c3e1416455df3e", "c2e2ff6820e9ba757ee8ddfea63c01ae85532a940daa9ae599790b93951e0618"},
}

// TestPresetDigestsGolden pins every dataset's sampled task stream to its
// frozen digest through all three routes: SampleDataset, the compiled
// preset's Sample, and its Stream.
func TestPresetDigestsGolden(t *testing.T) {
	for _, id := range AllDatasets() {
		spec, err := PresetSpec(id)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		comp, err := spec.Compile()
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if len(comp.Clients) != 1 {
			t.Fatalf("%v: preset has %d clients, want 1", id, len(comp.Clients))
		}
		for i, seed := range presetDigestSeeds {
			want := presetDigests[id][i]
			st := comp.Stream(rand.New(rand.NewSource(seed)), presetDigestTasks)
			streamed := make([]Task, 0, presetDigestTasks)
			for {
				tk, ok := st.Next()
				if !ok {
					break
				}
				streamed = append(streamed, tk)
			}
			routes := []struct {
				name  string
				tasks []Task
			}{
				{"SampleDataset", SampleDataset(id, rand.New(rand.NewSource(seed)), presetDigestTasks)},
				{"preset Sample", comp.Sample(rand.New(rand.NewSource(seed)), presetDigestTasks)},
				{"preset Stream", streamed},
			}
			for _, r := range routes {
				if len(r.tasks) != presetDigestTasks {
					t.Errorf("%v seed %d: %s emitted %d tasks, want %d", id, seed, r.name, len(r.tasks), presetDigestTasks)
				}
				if got := taskDigest(r.tasks); got != want {
					t.Errorf("%v seed %d: %s digest %s, want %s", id, seed, r.name, got, want)
				}
			}
		}
	}
}
