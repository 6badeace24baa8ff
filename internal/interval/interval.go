// Package interval implements an analytical interval-model estimator
// in the tradition of Karkhanis & Smith and Eyerman et al.'s
// mechanistic interval models: cycles are *derived* from measured
// event counts rather than simulated cycle by cycle. The machine
// makes one functional pass over the dynamic stream, counting the
// miss events that end intervals of smooth issue (branch
// mispredictions, I-cache misses, long data misses), and then prices
// each event class with a fixed penalty:
//
//	cycles = ceil(N / width) + sum_e count(e) * penalty(e) / overlap(e)
//
// This is the cheapest fidelity tier in the registry (analytical): it
// cannot see rename pressure, replay traps, or issue-queue structure
// at all, and it assumes miss events never overlap with useful work
// beyond a fixed per-class factor. That blindness is the point — the
// stability experiment (internal/validate) asks where conclusions
// drawn on this tier diverge from the detailed 21264 model, i.e.
// where the interval abstraction flips a speedup ranking.
package interval

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/predict"
	"repro/internal/vm"
)

// Config describes the interval estimator. The cache hierarchy and
// predictor are simulated functionally (hits and misses are real, as
// the interval model requires measured event counts); only the
// translation of events into cycles is analytical.
type Config struct {
	MachineName string

	// Width is the sustained issue width of the balanced pipeline:
	// the base term charges one cycle per Width instructions.
	Width int
	// BranchPenalty is the full pipeline-refill cost charged per
	// mispredicted branch (interval models charge the front-end
	// refill, not just the flush).
	BranchPenalty int
	// L2Overlap divides the penalty of L1D misses that hit in the L2:
	// an out-of-order window hides part of a short miss under
	// independent work. 1 means fully exposed.
	L2Overlap int
	// MemOverlap divides the penalty of L2 misses (DRAM accesses);
	// long misses overlap mostly with each other (MLP), which a
	// single divisor approximates.
	MemOverlap int
	// BimodalBits sizes the 2-bit-counter direction predictor used to
	// measure the misprediction count.
	BimodalBits int

	Hier      cache.HierarchyConfig
	DRAM      dram.Config
	NewMapper func() vm.Mapper
}

// DefaultConfig returns the estimator parameterized for the DS-10L
// target: 4-wide, 7-cycle refill (the 21264's minimum mispredict
// cost), DS-10L caches without the victim buffer (the analytical
// model prices only clean hit/miss classes).
func DefaultConfig() Config {
	hier := cache.DS10L()
	hier.VictimEntries = 0
	return Config{
		MachineName:   "sim-interval",
		Width:         4,
		BranchPenalty: 7,
		L2Overlap:     2,
		MemOverlap:    2,
		BimodalBits:   11,
		Hier:          hier,
		DRAM:          dram.DS10LConfig(),
		NewMapper:     func() vm.Mapper { return &vm.SeqMapper{} },
	}
}

// Check validates the configuration.
func (c Config) Check() error {
	if c.Width < 1 {
		return fmt.Errorf("interval: Width %d < 1", c.Width)
	}
	if c.BranchPenalty < 0 {
		return fmt.Errorf("interval: negative BranchPenalty %d", c.BranchPenalty)
	}
	if c.L2Overlap < 1 || c.MemOverlap < 1 {
		return fmt.Errorf("interval: overlap divisors must be >= 1 (L2 %d, Mem %d)",
			c.L2Overlap, c.MemOverlap)
	}
	if c.BimodalBits < 1 || c.BimodalBits > 24 {
		return fmt.Errorf("interval: BimodalBits %d out of range [1,24]", c.BimodalBits)
	}
	return nil
}

// Machine implements core.Machine.
type Machine struct {
	cfg Config
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

// Run implements core.Machine: one functional pass counting miss
// events, then the closed-form cycle estimate. The hierarchy is
// probed with an estimated current cycle (retired/Width plus the
// penalties accumulated so far) so DRAM bank/bus timing sees a
// plausible clock, but no per-cycle state is simulated.
//
// The estimator does not support sampling (it already costs only a
// functional pass), checkpoint restore, or warm fast-forward; the
// registry advertises these gaps as capability flags.
func (m *Machine) Run(w core.Workload) (core.RunResult, error) {
	if w.Sample != nil {
		return core.RunResult{}, fmt.Errorf("%s: analytical backend does not support sampling (it is already a single functional pass)", m.cfg.MachineName)
	}
	if w.Checkpoint != nil {
		return core.RunResult{}, fmt.Errorf("%s: analytical backend does not support checkpoint restore", m.cfg.MachineName)
	}
	if w.WarmFastForward > 0 {
		return core.RunResult{}, fmt.Errorf("%s: analytical backend does not support warm fast-forward", m.cfg.MachineName)
	}
	if err := m.cfg.Check(); err != nil {
		return core.RunResult{}, err
	}
	hier := cache.NewHierarchy(m.cfg.Hier, m.cfg.NewMapper(), m.memory())
	bimodal := predict.NewCounters(1<<m.cfg.BimodalBits, 2, 1)
	src := w.Source()

	var retired uint64
	// Per-component penalty accumulators, in cycles. Kept separate so
	// the CPI stack attributes each class exactly. dramPen holds the
	// controller-queueing share of memory penalties: cycles the
	// backend reports as request-queue waits are carved out of the
	// cache-miss components and charged to the dram component, so a
	// DDR-backed run's stack shows memory-controller pressure
	// directly. The flat backend reports no queue waits, so dramPen
	// is identically zero there and the stack is unchanged.
	var icPen, dcPen, l2Pen, brPen, dramPen uint64
	var col events.Collector

	// qwDelta reports the backend queue-wait cycles accrued since the
	// previous probe that could have touched the controller.
	var lastQW uint64
	qwDelta := func() uint64 {
		q := hier.Mem.MemStats().QueueWaits
		d := q - lastQW
		lastQW = q
		return d
	}

	lastFetchLine := uint64(1) << 63
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		// The estimated clock handed to the hierarchy: base progress
		// plus everything charged so far. Only DRAM timing reads it.
		now := retired/uint64(m.cfg.Width) + icPen + dcPen + l2Pen + brPen + dramPen

		// Fetch: one I-cache probe per line transition. An I-cache
		// miss ends an interval; the refill is serial with fetch, so
		// the full latency is charged.
		line := rec.PC &^ 63
		if line != lastFetchLine {
			res, _, _ := hier.Inst(rec.PC, now)
			if !res.L1Hit {
				col.Count(events.ICacheMisses, 1)
				pen := uint64(res.Latency + res.WalkCycles)
				// The refill is serial with fetch: queue waits carve
				// out of the same fully exposed penalty.
				if dq := qwDelta(); dq > 0 {
					if dq > pen {
						dq = pen
					}
					dramPen += dq
					pen -= dq
				}
				icPen += pen
			}
			lastFetchLine = line
		}

		switch {
		case rec.Inst.Op.Class().IsLoad():
			res := hier.Data(rec.EA, false, now)
			if !res.L1Hit && !res.VBHit {
				col.Count(events.DCacheMisses, 1)
				pen := uint64(res.Latency + res.WalkCycles)
				if res.L2Hit {
					if p := pen / uint64(m.cfg.L2Overlap); p > 0 {
						dcPen += p
					} else {
						dcPen++ // a counted miss always costs a cycle
					}
				} else {
					col.Count(events.L2Misses, 1)
					// Queue waits overlap like the rest of the long
					// miss, but are attributed to the controller.
					if dq := qwDelta(); dq > 0 {
						if dq > pen {
							dq = pen
						}
						if d := dq / uint64(m.cfg.MemOverlap); d > 0 {
							dramPen += d
						}
						pen -= dq
					}
					if p := pen / uint64(m.cfg.MemOverlap); p > 0 {
						l2Pen += p
					} else {
						l2Pen++
					}
				}
			}
		case rec.Inst.Op.Class().IsStore():
			// Stores update the hierarchy (they shape later miss
			// counts) but are priced as fully buffered: no penalty —
			// resync the queue-wait baseline so a store's controller
			// queueing is not charged to the next load.
			hier.Data(rec.EA, true, now)
			qwDelta()
		case rec.IsBranch():
			taken := predictTaken(&bimodal, rec.PC)
			train(&bimodal, rec.PC, rec.Taken)
			mispredict := taken != rec.Taken
			if rec.Inst.Op.Class() == isa.ClassJump {
				mispredict = true // no BTB: indirect targets always refill
			}
			if mispredict {
				col.Count(events.BrMispredicts, 1)
				brPen += uint64(m.cfg.BranchPenalty)
			}
		}
		retired++
	}
	if retired == 0 {
		return core.RunResult{}, fmt.Errorf("interval: empty instruction stream")
	}

	// The closed-form estimate: smooth issue plus priced miss events.
	base := (retired + uint64(m.cfg.Width) - 1) / uint64(m.cfg.Width)
	cycles := base + icPen + dcPen + l2Pen + brPen + dramPen

	col.Attribute(events.CompICache, icPen)
	col.Attribute(events.CompDCache, dcPen)
	col.Attribute(events.CompL2, l2Pen)
	col.Attribute(events.CompBranch, brPen)
	col.Attribute(events.CompDRAM, dramPen)
	hier.FoldMemEvents(&col)
	stack := col.Finish(cycles)
	return core.RunResult{
		Machine:      m.cfg.MachineName,
		Workload:     w.Name,
		Instructions: retired,
		Cycles:       cycles,
		Counters:     col.Counters(events.ModelInterval),
		Breakdown:    &stack,
	}, nil
}

func predictTaken(t *predict.Counters, pc uint64) bool {
	return t.Taken(int(pc>>2) & (t.Len() - 1))
}

func train(t *predict.Counters, pc uint64, taken bool) {
	t.Train(int(pc>>2)&(t.Len()-1), taken)
}
