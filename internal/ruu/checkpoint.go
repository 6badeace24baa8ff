package ruu

import (
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fingerprint"
)

// Compat fingerprints the warm-relevant configuration. The RUU model
// warms caches only (the gshare predictor's index couples to the
// speculative global history, so it is left to warmup windows), so
// the fingerprint covers the hierarchy and the mapping policy.
func (m *Machine) Compat() string {
	m.compatOnce.Do(func() { m.compat = compatOf(m.cfg) })
	return m.compat
}

// compatOf computes the Compat tag of a configuration.
func compatOf(cfg Config) string {
	return checkpoint.Hash([]byte(fingerprint.Of(struct {
		Hier   cache.HierarchyConfig
		Mapper string
	}{cfg.Hier, cfg.NewMapper().Name()})))
}

// warmState holds what functional warming keeps warm in the RUU
// model: the memory hierarchy only. newSim embeds it; the record pass
// builds it alone.
type warmState struct {
	hier *cache.Hierarchy
}

func newWarmState(cfg Config, mem cache.Memory) warmState {
	return warmState{hier: cache.NewHierarchy(cfg.Hier, cfg.NewMapper(), mem)}
}

// Hierarchy implements core.Warm.
func (ws *warmState) Hierarchy() *cache.Hierarchy { return ws.hier }

// Warmer implements core.Warm: caches only (see Compat for why the
// gshare predictor stays cold), per-line on the I-side, as fetch
// accesses them.
func (ws *warmState) Warmer() func(cpu.Record) {
	hier := ws.hier
	warmLine := uint64(1) << 63
	return func(rec cpu.Record) {
		if line := rec.PC &^ 63; line != warmLine {
			hier.WarmInst(rec.PC)
			warmLine = line
		}
		cls := rec.Inst.Op.Class()
		if cls.IsMem() {
			hier.WarmData(rec.EA, cls.IsStore())
		}
	}
}

// ExportPredictors implements core.Warm; the RUU model warms none.
func (ws *warmState) ExportPredictors(*checkpoint.State) {}

// ImportPredictors implements core.Warm; the RUU model warms none.
func (ws *warmState) ImportPredictors(*checkpoint.State) error { return nil }

// RecordCheckpoints implements core.CheckpointRecorder: a functional
// pass that warms the hierarchy exactly as Run's skip path does.
func (m *Machine) RecordCheckpoints(w core.Workload, positions []uint64) ([]*checkpoint.State, error) {
	ws := newWarmState(m.cfg, m.memory())
	return core.RecordCheckpoints(m, checkpoint.ModelRUU, w, positions, &ws)
}
