package inorder

import (
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fingerprint"
	"repro/internal/predict"
)

// Compat fingerprints the warm-relevant configuration: the hierarchy
// (mapping policy included) and the bimodal table geometry.
func (m *Machine) Compat() string {
	m.compatOnce.Do(func() { m.compat = compatOf(m.cfg) })
	return m.compat
}

// compatOf computes the Compat tag of a configuration.
func compatOf(cfg Config) string {
	return checkpoint.Hash([]byte(fingerprint.Of(struct {
		Hier        cache.HierarchyConfig
		BimodalBits int
	}{cfg.Hier, cfg.BimodalBits})))
}

// warmState holds what functional warming keeps warm in the in-order
// model: the memory hierarchy and the bimodal table. Run and the
// record pass both build it with newWarmState.
type warmState struct {
	hier    *cache.Hierarchy
	bimodal predict.Counters
}

func newWarmState(cfg Config, mem cache.Memory) warmState {
	return warmState{
		hier:    cache.NewHierarchy(cfg.Hier, mem),
		bimodal: predict.NewCounters(1<<cfg.BimodalBits, 2, 1),
	}
}

// Hierarchy implements core.Warm.
func (ws *warmState) Hierarchy() *cache.Hierarchy { return ws.hier }

// Warmer implements core.Warm: caches plus the (history-free) bimodal
// predictor, trained as the timed loop trains it.
func (ws *warmState) Warmer() func(cpu.Record) {
	hier, bimodal := ws.hier, &ws.bimodal
	warmLine := uint64(1) << 63
	return func(rec cpu.Record) {
		if line := rec.PC &^ 63; line != warmLine {
			hier.WarmInst(rec.PC)
			warmLine = line
		}
		cls := rec.Inst.Op.Class()
		switch {
		case cls.IsMem():
			hier.WarmData(rec.EA, cls.IsStore())
		case rec.IsBranch():
			train(bimodal, rec.PC, rec.Taken)
		}
	}
}

// ExportPredictors implements core.Warm.
func (ws *warmState) ExportPredictors(st *checkpoint.State) {
	st.Bimodal = ws.bimodal.Export()
}

// ImportPredictors implements core.Warm.
func (ws *warmState) ImportPredictors(st *checkpoint.State) error {
	return ws.bimodal.Import(st.Bimodal)
}

// RecordCheckpoints implements core.CheckpointRecorder.
func (m *Machine) RecordCheckpoints(w core.Workload, positions []uint64) ([]*checkpoint.State, error) {
	ws := newWarmState(m.cfg, m.memory())
	return core.RecordCheckpoints(m, checkpoint.ModelInorder, w, positions, &ws)
}
