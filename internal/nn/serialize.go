package nn

import "fmt"

// Limits on checkpoint-declared architectures. A malformed (or hostile)
// checkpoint must fail fast with an error — never panic inside NewMLP or
// allocate unbounded memory on the say-so of external input.
const (
	// MaxCheckpointDim bounds any single layer width.
	MaxCheckpointDim = 1 << 16
	// MaxCheckpointParams bounds the total parameter count (1M ≈ 8 MB of
	// weights — far above any architecture in this repo).
	MaxCheckpointParams = 1 << 20
)

// CheckSizes validates an externally-declared MLP architecture and returns
// its total parameter count. Deserializers call it before constructing
// anything.
func CheckSizes(sizes []int) (int, error) {
	if len(sizes) < 2 {
		return 0, fmt.Errorf("nn: %d layer sizes, need at least 2", len(sizes))
	}
	for i, s := range sizes {
		if s < 1 || s > MaxCheckpointDim {
			return 0, fmt.Errorf("nn: layer size %d at index %d out of [1, %d]", s, i, MaxCheckpointDim)
		}
	}
	var total int64
	for i := 0; i+1 < len(sizes); i++ {
		total += int64(sizes[i]+1) * int64(sizes[i+1])
	}
	if total > MaxCheckpointParams {
		return 0, fmt.Errorf("nn: architecture declares %d params, cap %d", total, MaxCheckpointParams)
	}
	return int(total), nil
}
