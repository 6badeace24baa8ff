// Package core defines the contracts shared by every machine model
// and experiment in this repository: workloads, machines, and run
// results. It is the paper's methodology distilled into types — a
// validation study is a set of (machine, workload) runs whose CPIs
// are compared against a reference machine's.
//
// Starting a run part-way into a workload — restoring a checkpoint,
// warm fast-forwarding, recording checkpoints, warming through
// sampling skips — is implemented once, in warmstart.go. A timing
// model supplies only a Warm over its own long-lived structures (its
// functional warmer plus export and import of its warmed predictors),
// its checkpoint family, and its Compat fingerprint.
package core

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/events"
)

// Workload is one benchmark: a program (or a recorded trace) plus an
// optional dynamic instruction budget.
type Workload struct {
	Name string
	Prog *asm.Program
	// NewSource, when set, supplies the dynamic stream instead of
	// executing Prog — e.g. replaying a recorded trace file. It must
	// return a fresh stream on every call.
	NewSource func() cpu.Source
	// FastForward skips this many dynamic instructions before timing
	// begins (functional state still advances through them), the
	// standard mechanism for sampling past initialization phases.
	FastForward uint64
	// MaxInstructions bounds the run; 0 means run to HALT.
	MaxInstructions uint64
	// Category groups workloads in reports ("control", "execute",
	// "memory", "macro", "calibration").
	Category string
	// Sample, when non-nil, runs the workload under systematic
	// interval sampling instead of full detailed simulation: the
	// machine times only the plan's warmup+measure windows and
	// fast-forwards functionally between them. See sample.go.
	Sample *SamplePlan
	// WarmFastForward, when non-zero, consumes this many dynamic
	// instructions through the machine's functional-warming path
	// (caches, TLBs, warmed predictors) before detailed timing
	// begins. It is the cold half of the checkpoint determinism
	// invariant: a run restored from a checkpoint at position N
	// matches a cold run with WarmFastForward=N byte for byte.
	// Mutually exclusive with Checkpoint and Sample.
	WarmFastForward uint64
	// Checkpoint, when non-nil, restores serialized simulator state
	// before timing begins: the dynamic stream resumes at
	// Checkpoint.Position with warmed caches and predictors, and
	// MaxInstructions counts only the remainder. Mutually exclusive
	// with WarmFastForward, NewSource, and FastForward.
	Checkpoint *checkpoint.State
}

// Source returns a fresh dynamic instruction stream for the workload.
func (w Workload) Source() cpu.Source {
	var c cpu.Source
	if w.NewSource != nil {
		c = w.NewSource()
	} else {
		c = cpu.New(w.Prog)
	}
	cpu.Skip(c, w.FastForward)
	if w.MaxInstructions > 0 {
		return &cpu.Limited{Src: c, Max: w.MaxInstructions}
	}
	return c
}

// RunResult is the outcome of one workload on one machine.
type RunResult struct {
	Machine      string
	Workload     string
	Instructions uint64
	Cycles       uint64
	// Counters holds machine-specific event counts (mispredictions,
	// replay traps, cache misses, ...) keyed by the canonical names of
	// the internal/events schema.
	Counters map[string]uint64
	// Breakdown, when non-nil, is the run's CPI stack: every cycle
	// attributed to the component that spent it. Machine models
	// guarantee Breakdown.Sum() == Cycles.
	Breakdown *events.Stack
	// Sampled, when non-nil, records that the run used interval
	// sampling: Instructions/Cycles/Counters/Breakdown then cover only
	// the measured windows (so CPI is the sampled estimate), and
	// Sampled carries the plan, per-interval observations, and the
	// detailed-vs-stream instruction accounting.
	Sampled *SampledRun
}

// IPC returns retired instructions per cycle.
func (r RunResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// CPI returns cycles per retired instruction.
func (r RunResult) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// String summarizes the result.
func (r RunResult) String() string {
	return fmt.Sprintf("%s/%s: %d insts, %d cycles, IPC %.3f",
		r.Machine, r.Workload, r.Instructions, r.Cycles, r.IPC())
}

// Counter returns a named counter, or 0 when absent.
func (r RunResult) Counter(name string) uint64 { return r.Counters[name] }

// ComponentCPI returns one CPI-stack component's contribution to the
// run's CPI (component cycles per retired instruction), or 0 when the
// run carries no breakdown.
func (r RunResult) ComponentCPI(c events.Component) float64 {
	if r.Breakdown == nil || r.Instructions == 0 {
		return 0
	}
	return float64(r.Breakdown[c]) / float64(r.Instructions)
}

// Machine is any timing model that can run a workload. Machines are
// single-use per run internally but Run must be callable repeatedly
// (each call constructs fresh microarchitectural state).
type Machine interface {
	// Name identifies the machine in reports ("sim-alpha", ...).
	Name() string
	// Run executes the workload to completion (or its instruction
	// budget) and returns timing results.
	Run(w Workload) (RunResult, error)
}

// CheckpointRecorder is implemented by machines that can serialize
// warmed simulator state. RecordCheckpoints makes one functional pass
// over the workload — identical to the machine's warming path — and
// snapshots state at each requested stream position (strictly
// ascending, measured in dynamic instructions past FastForward).
type CheckpointRecorder interface {
	Machine
	RecordCheckpoints(w Workload, positions []uint64) ([]*checkpoint.State, error)
}

// SampleCapable marks machines that honor Workload.Sample: systematic
// interval sampling with functional fast-forward between the detailed
// windows. The method is a marker, never called for effect — callers
// discover the capability by interface assertion (see internal/model,
// which derives every backend's capability flags this way).
type SampleCapable interface {
	Machine
	SampleCapable()
}

// StackCapable marks machines whose RunResults carry a CPI-stack
// Breakdown summing exactly to the run's cycles. Like SampleCapable,
// the method is an assertion marker only.
type StackCapable interface {
	Machine
	StackCapable()
}
