package repro

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/model"
)

var updateCkptGolden = flag.Bool("update-checkpoint", false, "re-bless testdata/checkpoint.golden")

// checkpointCases pairs each of the four timing models with a micro-
// and a macrobenchmark at fixed positions. The golden file pins the
// restored runs' cycle counts and the checkpoint blob hashes, so both
// the simulators and the serialization format are regression-locked.
var checkpointCases = []struct {
	machine string
	build   func() Machine
	work    string
	pos     uint64 // checkpoint position (warm prefix)
	rem     uint64 // detailed remainder
}{
	{"sim-alpha", SimAlpha, "gcc", 40_000, 20_000},
	{"sim-alpha", SimAlpha, "C-Ca", 2_000, 2_000},
	{"sim-outorder", SimOutorder, "gcc", 40_000, 20_000},
	{"sim-outorder", SimOutorder, "M-M", 2_000, 2_000},
	{"sim-inorder", SimInorder, "gcc", 40_000, 20_000},
	{"sim-inorder", SimInorder, "E-I", 2_000, 2_000},
	{"native-ds10l", NativeDS10L, "gcc", 40_000, 20_000},
	{"native-ds10l", NativeDS10L, "C-Ca", 2_000, 2_000},
}

// TestCheckpointDeterminism pins the subsystem's core invariant: a
// run restored from a checkpoint at position N is byte-identical — in
// instructions, cycles, every counter, and the CPI stack — to a cold
// run that warm-fast-forwards through N and times the same remainder.
// The checkpoint round-trips through the binary codec on the way, so
// the encoder/decoder are on the verified path.
func TestCheckpointDeterminism(t *testing.T) {
	var golden strings.Builder
	for _, tc := range checkpointCases {
		t.Run(fmt.Sprintf("%s/%s", tc.machine, tc.work), func(t *testing.T) {
			m := tc.build()
			rec, ok := m.(core.CheckpointRecorder)
			if !ok {
				t.Fatalf("%s does not implement core.CheckpointRecorder", tc.machine)
			}
			w, ok := WorkloadByName(tc.work)
			if !ok {
				t.Fatalf("no workload %q", tc.work)
			}

			// Cold half: warm through pos, time the remainder.
			cold := w
			cold.MaxInstructions = tc.pos + tc.rem
			cold.WarmFastForward = tc.pos
			coldRes, err := m.Run(cold)
			if err != nil {
				t.Fatal(err)
			}

			// Restored half: record at pos, round-trip the blob, resume.
			states, err := rec.RecordCheckpoints(w, []uint64{tc.pos})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := checkpoint.Encode(states[0])
			if err != nil {
				t.Fatal(err)
			}
			st, err := checkpoint.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(states[0], st) {
				t.Fatal("checkpoint state does not survive the codec round trip")
			}
			restored := w
			restored.MaxInstructions = tc.rem
			restored.Checkpoint = st
			resRes, err := m.Run(restored)
			if err != nil {
				t.Fatal(err)
			}

			if coldRes.Instructions != resRes.Instructions || coldRes.Cycles != resRes.Cycles {
				t.Errorf("cold %d insts / %d cycles, restored %d / %d",
					coldRes.Instructions, coldRes.Cycles, resRes.Instructions, resRes.Cycles)
			}
			if !reflect.DeepEqual(coldRes.Counters, resRes.Counters) {
				t.Errorf("counter mismatch:\n cold: %v\n rest: %v", coldRes.Counters, resRes.Counters)
			}
			if !reflect.DeepEqual(coldRes.Breakdown, resRes.Breakdown) {
				t.Errorf("CPI-stack mismatch:\n cold: %v\n rest: %v", coldRes.Breakdown, resRes.Breakdown)
			}
			if a, b := fingerprint.Of(coldRes), fingerprint.Of(resRes); a != b {
				t.Errorf("result fingerprints differ: %s vs %s", a, b)
			}
			fmt.Fprintf(&golden, "%s/%s pos=%d rem=%d insts=%d cycles=%d blob=%s\n",
				tc.machine, tc.work, tc.pos, tc.rem,
				resRes.Instructions, resRes.Cycles, checkpoint.Hash(blob)[:16])
		})
	}
	if t.Failed() {
		return
	}
	path := filepath.Join("testdata", "checkpoint.golden")
	if *updateCkptGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("blessed %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (re-bless with -update-checkpoint): %v", err)
	}
	if string(want) != golden.String() {
		t.Errorf("checkpoint golden drift (re-bless with -update-checkpoint if intentional):\n--- want\n%s--- got\n%s",
			want, golden.String())
	}
}

// TestCheckpointCompatCoversWarmer pins that the 21264 Compat tag
// covers everything the warmer reads: the I-prefetch feature and the
// fetch width shape the warmed I-cache and the line and way
// predictors, so machines differing only there get distinct tags, and
// each refuses a library recorded on another while running its own.
func TestCheckpointCompatCoversWarmer(t *testing.T) {
	narrow := model.DefaultAlphaConfig()
	narrow.MachineName, narrow.FetchWidth = "sim-alpha-fetch2", 2
	machines := []Machine{SimAlpha(), SimAlphaWithout("pref"), model.NewAlpha(narrow)}
	w, _ := WorkloadByName("gcc")
	w.MaxInstructions = 20_000
	plan := CheckpointLibraryPlan(w.MaxInstructions)
	libs := make([]*CheckpointLibrary, len(machines))
	tags := map[string]string{}
	for i, m := range machines {
		tag := m.(core.WarmMachine).Compat()
		if prev, dup := tags[tag]; dup {
			t.Errorf("%s and %s share Compat tag %s", prev, m.Name(), tag)
		}
		tags[tag] = m.Name()
		var err error
		if libs[i], err = BuildCheckpointLibrary(m, w, plan); err != nil {
			t.Fatal(err)
		}
	}
	for i, rec := range machines {
		for j, run := range machines {
			_, err := RunCheckpointSampled(run, w, libs[i], plan, 1)
			if i == j && err != nil {
				t.Errorf("%s refused its own library: %v", run.Name(), err)
			}
			if i != j && err == nil {
				t.Errorf("%s accepted a library recorded on %s", run.Name(), rec.Name())
			}
		}
	}
}

// TestCheckpointRejectsMismatch pins the refusal paths on every
// recorder family: wrong model family, wrong configuration, wrong
// workload, and conflicting workload fields must all fail loudly
// rather than silently skew.
func TestCheckpointRejectsMismatch(t *testing.T) {
	for _, fam := range []struct {
		machine string
		build   func() Machine
		// other is a machine of a different model family; sibling is
		// one of the same family with a different warm-relevant
		// configuration.
		other, sibling func() Machine
	}{
		{"sim-alpha", SimAlpha, SimOutorder, SimStripped},
		{"sim-outorder", SimOutorder, SimInorder, func() Machine {
			cfg := model.DefaultRUUConfig()
			cfg.Hier.L1D.SizeBytes /= 2
			return model.NewRUU(cfg)
		}},
		{"sim-inorder", SimInorder, SimAlpha, func() Machine {
			cfg := model.DefaultInorderConfig()
			cfg.BimodalBits--
			return model.NewInorder(cfg)
		}},
	} {
		t.Run(fam.machine, func(t *testing.T) {
			m := fam.build()
			rec := m.(core.CheckpointRecorder)
			w, _ := WorkloadByName("C-Ca")
			states, err := rec.RecordCheckpoints(w, []uint64{1_000})
			if err != nil {
				t.Fatal(err)
			}
			restored := w
			restored.MaxInstructions = 1_000
			restored.Checkpoint = states[0]

			other, _ := WorkloadByName("E-I")
			other.MaxInstructions = 1_000
			other.Checkpoint = states[0]
			withWarmFF := restored
			withWarmFF.WarmFastForward = 10
			withFF := restored
			withFF.FastForward = 10
			intoTrace := restored
			intoTrace.NewSource = w.Source
			plan := DefaultSamplePlan(10_000)
			sampledWarmFF := w
			sampledWarmFF.MaxInstructions = 10_000
			sampledWarmFF.Sample = &plan
			sampledWarmFF.WarmFastForward = 10

			for _, tc := range []struct {
				name string
				m    Machine
				w    Workload
			}{
				{"wrong model family", fam.other(), restored},
				{"wrong configuration", fam.sibling(), restored},
				{"wrong workload", m, other},
				{"Checkpoint with WarmFastForward", m, withWarmFF},
				{"Checkpoint with FastForward", m, withFF},
				{"Checkpoint into a NewSource workload", m, intoTrace},
				{"Sample with WarmFastForward", m, sampledWarmFF},
			} {
				if _, err := tc.m.Run(tc.w); err == nil {
					t.Errorf("%s: %s accepted the workload", tc.name, tc.m.Name())
				}
			}
		})
	}
}
