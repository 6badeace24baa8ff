package repro

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/checkpoint"
)

// TestSharedImagesConcurrent runs one Program on two goroutines at
// once, and restores one checkpoint library on two workers at once.
// Runs share the program's memory image and restores alias the
// library's pages, so this pins that neither is ever written: every
// concurrent result equals its serial twin, and every library state
// re-encodes to the hash it had before the restores. Under -race it
// also covers the image's once-only build.
func TestSharedImagesConcurrent(t *testing.T) {
	w, ok := WorkloadByName("gcc")
	if !ok {
		t.Fatal("no gcc workload")
	}
	w.MaxInstructions = 30_000

	// A program that has never been loaded, so the two goroutines
	// race to build its image.
	var obj bytes.Buffer
	if err := SaveProgram(&obj, w.Prog); err != nil {
		t.Fatal(err)
	}
	fresh, err := LoadProgram(&obj)
	if err != nil {
		t.Fatal(err)
	}
	w.Prog = fresh

	twice := func(f func() (any, error)) [2]any {
		var out [2]any
		var wg sync.WaitGroup
		for i := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := f()
				if err != nil {
					t.Error(err)
				}
				out[i] = v
			}()
		}
		wg.Wait()
		return out
	}

	runs := twice(func() (any, error) { return SimAlpha().Run(w) })
	serial, err := SimAlpha().Run(w)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		if !reflect.DeepEqual(r, serial) {
			t.Errorf("concurrent run %d differs from the serial run:\n got: %+v\nwant: %+v", i, r, serial)
		}
	}

	m := SimAlpha()
	plan := CheckpointLibraryPlan(w.MaxInstructions)
	lib, err := BuildCheckpointLibrary(m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	hashes := func() []string {
		out := make([]string, len(lib.States))
		for i, st := range lib.States {
			blob, err := checkpoint.Encode(st)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = checkpoint.Hash(blob)
		}
		return out
	}
	before := hashes()
	sampled := twice(func() (any, error) { return RunCheckpointSampled(m, w, lib, plan, 2) })
	want, err := RunCheckpointSampled(m, w, lib, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sampled {
		if !reflect.DeepEqual(s, want) {
			t.Errorf("concurrent checkpointed run %d differs from the serial one", i)
		}
	}
	if after := hashes(); !reflect.DeepEqual(after, before) {
		t.Error("restoring the library changed its states")
	}
}
