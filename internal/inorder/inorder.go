// Package inorder implements a simple single-issue, in-order,
// blocking-cache timing model in the mold of Mipsy (the processor
// model in the FLASH validation study the paper discusses as related
// work). It is deliberately the simplest credible timing model: one
// instruction per cycle at best, stalls on every cache miss, a
// bimodal branch predictor with a fixed misprediction penalty.
//
// It extends the paper's comparison set: where the RUU model is
// optimistic and the stripped model pessimistic, the in-order model
// bounds performance from far below, which makes it useful in
// stability studies as a degenerate "simulator" a careless researcher
// might reach for.
package inorder

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/predict"
)

// Config describes the in-order machine.
type Config struct {
	MachineName string

	// BranchPenalty is the flush cost of a mispredicted branch.
	BranchPenalty int
	// BimodalBits sizes the 2-bit-counter direction predictor table.
	BimodalBits int

	Hier cache.HierarchyConfig
	DRAM dram.Config
}

// Check verifies the configuration is runnable.
func (c Config) Check() error { return c.Hier.Check() }

// DefaultConfig returns the machine with DS-10L-like caches.
func DefaultConfig() Config {
	hier := cache.DS10L()
	hier.VictimEntries = 0
	return Config{
		MachineName:   "sim-inorder",
		BranchPenalty: 3,
		BimodalBits:   11,
		Hier:          hier,
		DRAM:          dram.DS10LConfig(),
	}
}

// Machine implements core.Machine.
type Machine struct {
	cfg Config
	// compat is the Compat tag, computed on first use and kept: cfg
	// never changes, and most machines never restore or record.
	compatOnce sync.Once
	compat     string
	// newMem, when set, builds the main-memory backend instead of the
	// flat SDRAM model from cfg.DRAM (see alpha.Machine for why this
	// lives outside Config: pinned fingerprints must not change).
	newMem func() cache.Memory
}

// New returns a machine for the configuration.
func New(cfg Config) *Machine { return &Machine{cfg: cfg} }

// NewWithMemory returns a machine whose hierarchy sits on the memory
// backend the factory builds instead of the flat SDRAM from cfg.DRAM.
func NewWithMemory(cfg Config, newMem func() cache.Memory) *Machine {
	m := New(cfg)
	m.newMem = newMem
	return m
}

// memory builds the machine's main-memory backend.
func (m *Machine) memory() cache.Memory {
	if m.newMem != nil {
		return m.newMem()
	}
	return dram.New(m.cfg.DRAM)
}

// Name implements core.Machine.
func (m *Machine) Name() string { return m.cfg.MachineName }

// Run implements core.Machine. The model is a straightforward
// accumulation: each instruction costs at least one cycle, plus its
// execution latency beyond one when a dependent follows immediately
// (in-order machines expose full latency), plus memory and
// misprediction stalls.
func (m *Machine) Run(w core.Workload) (core.RunResult, error) {
	ws := newWarmState(m.cfg, m.memory())
	src, cur, err := core.StartRun(m, checkpoint.ModelInorder, w, &ws)
	if err != nil {
		return core.RunResult{}, err
	}
	hier, bimodal := ws.hier, &ws.bimodal

	var cycle, retired uint64
	// col accumulates typed event counts and CPI-stack attribution
	// (the unified instrumentation layer, internal/events). With a
	// blocking in-order pipe, attribution is direct: every stall the
	// model adds to the cycle count is charged where it is added.
	var col events.Collector
	// regReadyAt holds the cycle each architectural register's value
	// becomes available; in-order issue waits for sources.
	var regReadyAt [2][isa.NumRegs]uint64

	lastFetchLine := uint64(1) << 63
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		// Fetch: one I-cache access per line transition.
		line := rec.PC &^ 63
		if line != lastFetchLine {
			res, _, _ := hier.Inst(rec.PC, cycle)
			if !res.L1Hit {
				col.Count(events.ICacheMisses, 1)
				col.Attribute(events.CompICache, uint64(res.Latency+res.WalkCycles))
				cycle += uint64(res.Latency + res.WalkCycles)
			}
			lastFetchLine = line
		}

		// Wait for source operands (in-order: full latency exposure).
		var srcs [3]isa.RegRef
		for _, s := range srcs[:rec.Inst.SourcesInto(&srcs)] {
			file := 0
			if s.FP {
				file = 1
			}
			if t := regReadyAt[file][s.Reg]; t > cycle {
				cycle = t
			}
		}

		lat := latency(rec.Inst.Op.Class())
		switch {
		case rec.Inst.Op.Class().IsLoad():
			res := hier.Data(rec.EA, false, cycle)
			if !res.L1Hit && !res.VBHit {
				col.Count(events.DCacheMisses, 1)
				comp := events.CompDCache
				if !res.L2Hit {
					col.Count(events.L2Misses, 1)
					comp = events.CompL2
				}
				// Blocking cache: the whole pipeline waits.
				col.Attribute(comp, uint64(res.Latency+res.WalkCycles)-1)
				cycle += uint64(res.Latency+res.WalkCycles) - 1
				lat = 1
			} else {
				lat = res.Latency
			}
		case rec.Inst.Op.Class().IsStore():
			hier.Data(rec.EA, true, cycle)
			lat = 1
		case rec.IsBranch():
			taken := predictTaken(bimodal, rec.PC)
			train(bimodal, rec.PC, rec.Taken)
			mispredict := taken != rec.Taken
			if rec.Inst.Op.Class() == isa.ClassJump {
				mispredict = true // no BTB: indirect targets always flush
			}
			if mispredict {
				col.Count(events.BrMispredicts, 1)
				col.Attribute(events.CompBranch, uint64(m.cfg.BranchPenalty))
				cycle += uint64(m.cfg.BranchPenalty)
			}
			lat = 1
		}

		if d, hasDest := rec.Inst.Dest(); hasDest {
			file := 0
			if d.FP {
				file = 1
			}
			regReadyAt[file][d.Reg] = cycle + uint64(lat)
		}
		cycle++ // single issue
		retired++
		cur.OnRetire(retired, cycle, &col)
	}
	if retired == 0 {
		return core.RunResult{}, fmt.Errorf("inorder: empty instruction stream")
	}
	hier.FoldMemEvents(&col)
	stack := col.Finish(cycle)
	res := core.RunResult{
		Machine:      m.cfg.MachineName,
		Workload:     w.Name,
		Instructions: retired,
		Cycles:       cycle,
		Counters:     col.Counters(events.ModelInOrder),
		Breakdown:    &stack,
	}
	cur.Finalize(&res, events.ModelInOrder)
	return res, nil
}

func predictTaken(t *predict.Counters, pc uint64) bool {
	return t.Taken(int(pc>>2) & (t.Len() - 1))
}

func train(t *predict.Counters, pc uint64, taken bool) {
	t.Train(int(pc>>2)&(t.Len()-1), taken)
}

func latency(cls isa.Class) int {
	switch cls {
	case isa.ClassIntMul:
		return 7
	case isa.ClassFPAdd, isa.ClassFPMul:
		return 4
	case isa.ClassFPDivS:
		return 12
	case isa.ClassFPDivT:
		return 15
	case isa.ClassFPSqrtS:
		return 18
	case isa.ClassFPSqrtT:
		return 33
	}
	return 1
}
