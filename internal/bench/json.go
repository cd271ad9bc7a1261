package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Every sweep's committed BENCH_*.json is its own gate: the simulation
// is deterministic, so CI regenerates the file with `benchtab -exp X
// -json` and fails on any `git diff`. Re-baselining is regenerating the
// file and committing the diff.

// SwitchBaselineSchema versions the committed benchmark baseline; bump
// it when the sweep's shape or the cost model changes incompatibly.
const SwitchBaselineSchema = "mercury-bench/switch/v1"

// SwitchBaseline is the serialized form of the switch-latency
// trajectory, committed at the repo root as BENCH_switch.json.
type SwitchBaseline struct {
	Schema string             `json:"schema"`
	Scale  []SwitchScalePoint `json:"scale"`
}

// WriteJSONFile marshals any benchmark result (TableResult,
// FigureResult, a sweep baseline, ...) to path as indented JSON.
func WriteJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding %s: %w", path, err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}
