package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/cpu"
	"repro/internal/dram"
)

type fakeMachine struct{}

func (fakeMachine) Name() string   { return "fake-m" }
func (fakeMachine) Compat() string { return "fake-compat" }

// fakeWarm stands in for a model's warm structures: a real hierarchy
// (the driver exports and imports it) and one "predictor", the count
// of records warmed, which round-trips through the Bimodal section.
type fakeWarm struct {
	hier   *cache.Hierarchy
	warmed uint32
	hooks  int
}

func newFakeWarm() *fakeWarm {
	return &fakeWarm{hier: cache.NewHierarchy(cache.DS10L(), dram.New(dram.DS10LConfig()))}
}

func (f *fakeWarm) Hierarchy() *cache.Hierarchy { return f.hier }

func (f *fakeWarm) Warmer() func(cpu.Record) {
	f.hooks++
	return func(rec cpu.Record) {
		f.hier.WarmInst(rec.PC)
		f.warmed++
	}
}

func (f *fakeWarm) ExportPredictors(st *checkpoint.State) { st.Bimodal = []uint32{f.warmed} }

func (f *fakeWarm) ImportPredictors(st *checkpoint.State) error {
	f.warmed = st.Bimodal[0]
	return nil
}

// wantNamed fails unless err is non-nil and names the machine and the
// workload.
func wantNamed(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("no error")
	}
	if !strings.Contains(err.Error(), "fake-m/tiny-loop") {
		t.Errorf("error %q does not name the machine and workload", err)
	}
}

func TestRecordCheckpointsRejects(t *testing.T) {
	p := prog(t)
	trace := Workload{Name: "tiny-loop", Prog: p, NewSource: func() cpu.Source { return cpu.New(p) }}
	for _, tc := range []struct {
		name      string
		w         Workload
		positions []uint64
	}{
		{"no positions", Workload{Name: "tiny-loop", Prog: p}, nil},
		{"not ascending", Workload{Name: "tiny-loop", Prog: p}, []uint64{5, 5}},
		{"stream ends first", Workload{Name: "tiny-loop", Prog: p}, []uint64{5, 1 << 20}},
		{"trace source", trace, []uint64{5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RecordCheckpoints(fakeMachine{}, checkpoint.ModelInorder, tc.w, tc.positions, newFakeWarm())
			wantNamed(t, err)
		})
	}
}

func TestStartRunWarmFastForwardPastEnd(t *testing.T) {
	w := Workload{Name: "tiny-loop", Prog: prog(t), WarmFastForward: 1 << 20}
	_, _, err := StartRun(fakeMachine{}, checkpoint.ModelInorder, w, newFakeWarm())
	wantNamed(t, err)
	if !strings.Contains(err.Error(), "warm fast-forward") {
		t.Errorf("error %q does not say the warm fast-forward ran out", err)
	}
}

// TestStartRunRestoreMatchesWarmFastForward checks the driver's half
// of the checkpoint invariant: restoring at N leaves the same stream
// and warm state as warming forward through N, and every use gets a
// fresh warmer.
func TestStartRunRestoreMatchesWarmFastForward(t *testing.T) {
	const pos, rem = 7, 6
	w := Workload{Name: "tiny-loop", Prog: prog(t)}
	states, err := RecordCheckpoints(fakeMachine{}, checkpoint.ModelInorder, w, []uint64{3, pos}, newFakeWarm())
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 2 || states[1].Position != pos || states[1].Machine != "fake-m" || states[1].Compat != "fake-compat" {
		t.Fatalf("recorded %+v", states)
	}

	drain := func(w Workload) (*fakeWarm, []uint64) {
		t.Helper()
		ws := newFakeWarm()
		src, cur, err := StartRun(fakeMachine{}, checkpoint.ModelInorder, w, ws)
		if err != nil {
			t.Fatal(err)
		}
		if cur != nil {
			t.Fatal("cursor for a full run")
		}
		var pcs []uint64
		for rec, ok := src.Next(); ok; rec, ok = src.Next() {
			pcs = append(pcs, rec.PC)
		}
		return ws, pcs
	}
	cold := w
	cold.WarmFastForward, cold.MaxInstructions = pos, pos+rem
	coldWarm, coldPCs := drain(cold)
	restored := w
	restored.Checkpoint, restored.MaxInstructions = states[1], rem
	resWarm, resPCs := drain(restored)

	if len(coldPCs) != rem || !slices.Equal(coldPCs, resPCs) {
		t.Fatalf("cold run timed PCs %#x, restored %#x (want %d each)", coldPCs, resPCs, rem)
	}
	if coldWarm.warmed != pos || resWarm.warmed != pos {
		t.Errorf("warmed cold %d, restored %d, want %d", coldWarm.warmed, resWarm.warmed, pos)
	}
	if coldWarm.hooks != 2 {
		t.Errorf("cold run handed out %d warmers, want one for skips and one for the fast-forward", coldWarm.hooks)
	}
}
