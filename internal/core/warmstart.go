// Warm-start positioning, once for every timing model: the record
// pass, checkpoint restore, and warm fast-forward. A run restored from
// a checkpoint at N and a cold run with WarmFastForward=N leave the
// same stream position and warm state because both come from here.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/vm"
)

// Warm is the model-specific half of warm-start positioning: the
// structures functional warming keeps warm, freshly built for one run
// or one record pass.
type Warm interface {
	// Hierarchy returns the memory hierarchy the warmer warms.
	Hierarchy() *cache.Hierarchy
	// Warmer returns a fresh functional-warming hook over the
	// structures. Each use — the record pass, sampling skips, warm
	// fast-forward — gets its own hook, because a hook tracks
	// fetch-line (and, for some models, fetch-packet) state of its own.
	Warmer() func(cpu.Record)
	// ExportPredictors copies the warmed predictors into st.
	ExportPredictors(st *checkpoint.State)
	// ImportPredictors loads the warmed predictors from st.
	ImportPredictors(st *checkpoint.State) error
}

// WarmMachine is what the driver reads of the machine itself: its
// name for errors and recorded states, and the fingerprint of its
// warm-relevant configuration that checkpoints are tagged with.
type WarmMachine interface {
	Name() string
	Compat() string
}

// checkRestore validates the restore-related workload fields.
func (w Workload) checkRestore() error {
	if w.WarmFastForward > 0 && w.Sample != nil {
		return fmt.Errorf("workload sets both WarmFastForward and Sample")
	}
	if w.Checkpoint != nil {
		if w.WarmFastForward > 0 {
			return fmt.Errorf("workload sets both Checkpoint and WarmFastForward")
		}
		if w.NewSource != nil {
			return fmt.Errorf("workload restores a checkpoint into a trace source")
		}
		if w.FastForward > 0 {
			return fmt.Errorf("workload sets both Checkpoint and FastForward (the checkpoint position already includes it)")
		}
		if w.Prog == nil {
			return fmt.Errorf("workload restores a checkpoint without a program")
		}
	}
	return nil
}

// StartRun positions w's stream for a timed run on machine m (of
// checkpoint model family), whose fresh warm structures are ws. It
// restores w.Checkpoint into ws or builds the cold source, wraps the
// source in the sample cursor with ws's warmer and hierarchy counter
// fold registered, and consumes w.WarmFastForward instructions through
// a fresh warmer. The model times what the returned source delivers
// and reports retirements to the returned cursor, which is nil (and
// inert) unless w.Sample is set.
func StartRun(m WarmMachine, family string, w Workload, ws Warm) (cpu.Source, *SampleCursor, error) {
	if err := w.checkRestore(); err != nil {
		return nil, nil, fmt.Errorf("%s/%s: %w", m.Name(), w.Name, err)
	}
	var src cpu.Source
	if w.Checkpoint != nil {
		c, err := restore(m, family, w, ws)
		if err != nil {
			return nil, nil, fmt.Errorf("%s/%s: restore: %w", m.Name(), w.Name, err)
		}
		src = c
		if w.MaxInstructions > 0 {
			src = &cpu.Limited{Src: c, Max: w.MaxInstructions}
		}
	} else {
		src = w.Source()
	}
	cur := NewSampleCursor(w.Sample)
	src = cur.Wrap(src)
	hier := ws.Hierarchy()
	cur.SetSync(func(c *events.Collector) {
		hier.FoldMemEvents(c)
	})
	cur.SetWarm(ws.Warmer())
	if w.WarmFastForward > 0 {
		warm := ws.Warmer()
		for i := uint64(0); i < w.WarmFastForward; i++ {
			rec, ok := src.Next()
			if !ok {
				return nil, nil, fmt.Errorf("%s/%s: stream ended at %d instructions during warm fast-forward (wanted %d)",
					m.Name(), w.Name, i, w.WarmFastForward)
			}
			warm(rec)
		}
	}
	return src, cur, nil
}

// restore rebuilds the CPU from w.Checkpoint and imports the warmed
// hierarchy and predictors into ws. Timing-only machinery stays in
// the reset state ws was built in — exactly where a cold
// warmed-forward run stands at the same position.
func restore(m WarmMachine, family string, w Workload, ws Warm) (*cpu.CPU, error) {
	st := w.Checkpoint
	if err := st.CompatibleWith(family, m.Compat()); err != nil {
		return nil, err
	}
	if st.Workload != w.Name {
		return nil, fmt.Errorf("checkpoint recorded workload %q", st.Workload)
	}
	mem := vm.NewMemory()
	mem.ImportPages(st.Pages)
	c := cpu.Restore(w.Prog, mem, st.CPU)
	if err := ws.Hierarchy().ImportWarm(st.Hier); err != nil {
		return nil, err
	}
	if err := ws.ImportPredictors(st); err != nil {
		return nil, err
	}
	return c, nil
}

// RecordCheckpoints is the record pass behind every
// CheckpointRecorder: one functional pass over w's program through
// ws's warmer — the same path StartRun's warm fast-forward takes —
// snapshotting CPU state, memory pages, the hierarchy and the
// predictors at each position (strictly ascending, in dynamic
// instructions past w.FastForward).
func RecordCheckpoints(m WarmMachine, family string, w Workload, positions []uint64, ws Warm) ([]*checkpoint.State, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("%s/%s: no checkpoint positions requested", m.Name(), w.Name)
	}
	for i := 1; i < len(positions); i++ {
		if positions[i] <= positions[i-1] {
			return nil, fmt.Errorf("%s/%s: checkpoint positions not strictly ascending at %d", m.Name(), w.Name, i)
		}
	}
	if w.NewSource != nil || w.Prog == nil {
		return nil, fmt.Errorf("%s/%s: checkpoints require a program workload, not a trace source", m.Name(), w.Name)
	}
	c := cpu.New(w.Prog)
	cpu.Skip(c, w.FastForward)
	hier := ws.Hierarchy()
	warm := ws.Warmer()
	compat := m.Compat()

	out := make([]*checkpoint.State, 0, len(positions))
	var consumed uint64
	for _, pos := range positions {
		for consumed < pos {
			rec, ok := c.Next()
			if !ok {
				return nil, fmt.Errorf("%s/%s: stream ended at %d instructions, checkpoint wanted %d",
					m.Name(), w.Name, consumed, pos)
			}
			warm(rec)
			consumed++
		}
		cs, err := c.Export()
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", m.Name(), w.Name, err)
		}
		hs, err := hier.ExportWarm()
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", m.Name(), w.Name, err)
		}
		st := &checkpoint.State{
			Model:    family,
			Machine:  m.Name(),
			Compat:   compat,
			Workload: w.Name,
			Position: pos,
			CPU:      cs,
			Pages:    c.Mem.ExportPages(),
			Hier:     hs,
		}
		ws.ExportPredictors(st)
		out = append(out, st)
	}
	return out, nil
}
