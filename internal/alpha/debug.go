package alpha

import "repro/internal/core"

// DebugRun executes a workload and returns per-PC direction
// mispredict counts; a development aid.
func DebugRun(cfg Config, w core.Workload) map[uint64]uint64 {
	s := newSim(cfg, New(cfg).memory())
	s.src = w.Source()
	s.DebugMispredictPCs = make(map[uint64]uint64)
	if err := s.run(); err != nil {
		panic(err)
	}
	return s.DebugMispredictPCs
}
