package workgen

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/fingerprint"
)

func TestDefaultSpecValid(t *testing.T) {
	if err := DefaultSpec().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateDeterminism is the subsystem's core guarantee: the same
// spec emits a byte-identical program on every call, including calls
// racing across goroutines — generation draws only from the
// name-seeded RNG, never from global state.
func TestGenerateDeterminism(t *testing.T) {
	spec := DefaultSpec()
	spec.ConflictWays = 4
	spec.TrapDensity = 2
	spec.ConflictDensity = 2

	base := MustGenerate(spec)
	want := fingerprint.Of(base.Prog)

	const workers = 8
	got := make([]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = fingerprint.Of(MustGenerate(spec).Prog)
		}(i)
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("worker %d generated a different program: %s != %s", i, fp, want)
		}
	}
}

// Different specs must never alias: the name encodes every field and
// the name seeds generation.
func TestGenerateSpecSensitivity(t *testing.T) {
	a := DefaultSpec()
	b := a
	b.Seed++
	if a.Name() == b.Name() {
		t.Fatalf("specs differing in seed share name %q", a.Name())
	}
	if fingerprint.Of(MustGenerate(a).Prog) == fingerprint.Of(MustGenerate(b).Prog) {
		t.Errorf("specs differing in seed generated identical programs")
	}
}

func TestGenerateWorkloadShape(t *testing.T) {
	w := MustGenerate(DefaultSpec())
	if w.Category != Category {
		t.Errorf("category = %q, want %q", w.Category, Category)
	}
	if !strings.HasPrefix(w.Name, "wg-") {
		t.Errorf("name = %q, want wg- prefix", w.Name)
	}
	if w.Prog == nil || len(w.Prog.Code) == 0 {
		t.Errorf("generated workload has no code")
	}
}

// TestSpecCheckBounds exercises the validation: axes where zero is
// meaningless reject zero and negatives; presence axes accept zero
// but reject negatives; everything rejects out-of-range highs.
func TestSpecCheckBounds(t *testing.T) {
	mut := func(f func(*Spec)) Spec {
		s := DefaultSpec()
		f(&s)
		return s
	}
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"default", DefaultSpec(), true},
		{"zero-iters", mut(func(s *Spec) { s.Iters = 0 }), false},
		{"negative-iters", mut(func(s *Spec) { s.Iters = -1 }), false},
		{"iters-too-big", mut(func(s *Spec) { s.Iters = maxIters + 1 }), false},
		{"negative-entropy", mut(func(s *Spec) { s.BranchEntropy = -1 }), false},
		{"entropy-over-100", mut(func(s *Spec) { s.BranchEntropy = 101 }), false},
		{"zero-period", mut(func(s *Spec) { s.BranchPeriod = 0 }), false},
		{"period-too-big", mut(func(s *Spec) { s.BranchPeriod = maxPeriod + 1 }), false},
		{"zero-ws", mut(func(s *Spec) { s.WorkingSetKB = 0 }), false},
		{"negative-ws", mut(func(s *Spec) { s.WorkingSetKB = -4 }), false},
		{"ws-too-big", mut(func(s *Spec) { s.WorkingSetKB = maxWSKB + 1 }), false},
		{"negative-chase", mut(func(s *Spec) { s.ChaseDepth = -1 }), false},
		{"zero-chase-ok", mut(func(s *Spec) { s.ChaseDepth = 0 }), true},
		{"zero-ilp", mut(func(s *Spec) { s.ILPWidth = 0 }), false},
		{"ilp-too-wide", mut(func(s *Spec) { s.ILPWidth = maxILP + 1 }), false},
		{"negative-ways", mut(func(s *Spec) { s.ConflictWays = -1 }), false},
		{"ways-without-stride", mut(func(s *Spec) { s.ConflictWays = 2; s.ConflictStrideKB = 0 }), false},
		{"conflict-region-too-big", mut(func(s *Spec) { s.ConflictWays = 16; s.ConflictStrideKB = maxStrideKB }), false},
		{"negative-density", mut(func(s *Spec) { s.ConflictDensity = -1 }), false},
		{"negative-traps", mut(func(s *Spec) { s.TrapDensity = -1 }), false},
		{"traps-too-many", mut(func(s *Spec) { s.TrapDensity = maxTraps + 1 }), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Check()
			if tc.ok && err != nil {
				t.Errorf("Check() = %v, want ok", err)
			}
			if !tc.ok && err == nil {
				t.Errorf("Check() accepted an invalid spec: %+v", tc.spec)
			}
		})
	}
}

// Every valid axis setting must assemble — sweep each axis to its
// extremes (bounded to keep the test fast) and generate.
func TestGenerateAxisExtremes(t *testing.T) {
	mut := func(f func(*Spec)) Spec {
		s := DefaultSpec()
		f(&s)
		return s
	}
	for name, s := range map[string]Spec{
		"all-random-branches":    mut(func(s *Spec) { s.BranchEntropy = 100 }),
		"all-patterned-branches": mut(func(s *Spec) { s.BranchEntropy = 0 }),
		"max-period":             mut(func(s *Spec) { s.BranchPeriod = maxPeriod }),
		"deep-chase":             mut(func(s *Spec) { s.ChaseDepth = maxChase }),
		"serial-ilp":             mut(func(s *Spec) { s.ILPWidth = 1 }),
		"max-ilp":                mut(func(s *Spec) { s.ILPWidth = maxILP }),
		"many-ways":              mut(func(s *Spec) { s.ConflictWays = 32; s.ConflictStrideKB = 32 }),
		"max-conflicts":          mut(func(s *Spec) { s.ConflictDensity = maxConflicts }),
		"max-traps":              mut(func(s *Spec) { s.TrapDensity = maxTraps }),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Generate(s); err != nil {
				t.Errorf("Generate: %v", err)
			}
		})
	}
}
