package predict

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestSatCounter(t *testing.T) {
	c := NewSatCounter(2, 0)
	if c.Taken() {
		t.Error("zero counter predicts taken")
	}
	c.Inc()
	c.Inc() // 2: taken
	if !c.Taken() {
		t.Error("counter 2/3 not taken")
	}
	c.Inc()
	c.Inc() // saturate at 3
	if c.Value() != 3 {
		t.Errorf("value = %d, want 3", c.Value())
	}
	for i := 0; i < 5; i++ {
		c.Dec()
	}
	if c.Value() != 0 {
		t.Errorf("value = %d, want 0", c.Value())
	}
}

func TestSatCounterInitClamped(t *testing.T) {
	c := NewSatCounter(4, 99)
	if c.Value() != 15 {
		t.Errorf("init clamped to %d, want 15", c.Value())
	}
}

// Property: counter value stays within [0, 2^bits-1] under any
// sequence of operations.
func TestQuickSatCounterBounds(t *testing.T) {
	f := func(ops []bool, bits uint8) bool {
		b := int(bits)%6 + 1
		c := NewSatCounter(b, 0)
		for _, inc := range ops {
			if inc {
				c.Inc()
			} else {
				c.Dec()
			}
			if c.Value() > uint32(1<<b-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTournamentLearnsAlwaysTaken(t *testing.T) {
	tr := NewTournament(DefaultTournamentConfig())
	pc := uint64(0x1000)
	// Warmup must cover the history register reaching steady state
	// (all-ones) plus counter training at that index.
	for i := 0; i < 50; i++ {
		tr.Resolve(pc, true)
	}
	if !tr.Predict(pc, true) {
		t.Error("did not learn always-taken")
	}
	if !tr.Predict(pc, false) {
		t.Error("retired-history path did not learn always-taken")
	}
}

func TestTournamentLearnsAlternating(t *testing.T) {
	// A strict alternation is captured by the local (per-PC history)
	// component after warmup.
	tr := NewTournament(DefaultTournamentConfig())
	pc := uint64(0x2000)
	taken := false
	correct := 0
	for i := 0; i < 400; i++ {
		pred := tr.Predict(pc, false)
		if pred == taken && i >= 200 {
			correct++
		}
		tr.Resolve(pc, taken)
		taken = !taken
	}
	if correct < 190 {
		t.Errorf("alternation accuracy %d/200 after warmup", correct)
	}
}

func TestTournamentGlobalCorrelation(t *testing.T) {
	// Branch B is taken iff branch A was taken; only the global
	// component can learn this when A's direction is random-ish.
	tr := NewTournament(DefaultTournamentConfig())
	pcA, pcB := uint64(0x3000), uint64(0x4000)
	seq := []bool{true, false, false, true, true, true, false, true, false, false}
	correct, total := 0, 0
	for iter := 0; iter < 300; iter++ {
		a := seq[iter%len(seq)]
		tr.Resolve(pcA, a)
		pred := tr.Predict(pcB, false)
		if iter > 150 {
			total++
			if pred == a {
				correct++
			}
		}
		tr.Resolve(pcB, a)
	}
	if correct*10 < total*9 {
		t.Errorf("global correlation accuracy %d/%d", correct, total)
	}
}

func TestTournamentSpecHistory(t *testing.T) {
	tr := NewTournament(DefaultTournamentConfig())
	// Shift a speculative outcome; the spec history must differ from
	// retired history until fixed.
	tr.ShiftSpec(true)
	if tr.history(true) == tr.history(false) {
		t.Error("spec shift did not diverge histories")
	}
	tr.FixHistory()
	if tr.history(true) != tr.history(false) {
		t.Error("FixHistory did not resync")
	}
}

func TestLinePredictor(t *testing.T) {
	l := NewLine(1024)
	pc := uint64(0x10000)
	// Untrained: sequential.
	if got := l.Predict(pc); got != pc+16 {
		t.Errorf("untrained predict = %#x, want %#x", got, pc+16)
	}
	l.Train(pc, 0x20000)
	if got := l.Predict(pc); got != 0x20000 {
		t.Errorf("trained predict = %#x, want %#x", got, uint64(0x20000))
	}
	// Different octaword, independent entry.
	if got := l.Predict(pc + 16); got != pc+32 {
		t.Errorf("neighbor predict = %#x, want sequential", got)
	}
}

func TestLinePredictorAliasing(t *testing.T) {
	l := NewLine(16)                 // tiny table to force aliasing
	a, b := uint64(0), uint64(16*16) // same index
	l.Train(a, 0x100)
	if got := l.Predict(b); got != 0x100 {
		t.Errorf("aliased entries should collide: got %#x", got)
	}
}

func TestWayPredictor(t *testing.T) {
	w := NewWay(512)
	if got := w.Predict(5); got != 0 {
		t.Errorf("untrained way = %d", got)
	}
	w.Train(5, 1)
	if got := w.Predict(5); got != 1 {
		t.Errorf("trained way = %d", got)
	}
	w.Train(5, 0)
	if got := w.Predict(5); got != 0 {
		t.Errorf("retrained way = %d", got)
	}
}

func TestRASBasic(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty pop succeeded")
	}
	r.Push(0x100)
	r.Push(0x200)
	if a, ok := r.Pop(); !ok || a != 0x200 {
		t.Errorf("pop = %#x, %v", a, ok)
	}
	if a, ok := r.Pop(); !ok || a != 0x100 {
		t.Errorf("pop = %#x, %v", a, ok)
	}
}

func TestRASWrapAround(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if r.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", r.Depth())
	}
	a, _ := r.Pop()
	b, _ := r.Pop()
	if a != 3 || b != 2 {
		t.Errorf("pops = %d, %d; want 3, 2", a, b)
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(1)
	m := r.Snapshot()
	r.Push(2)
	r.Pop()
	r.Pop()
	r.Restore(m)
	if a, ok := r.Pop(); !ok || a != 1 {
		t.Errorf("after restore pop = %d, %v; want 1", a, ok)
	}
}

func TestLoadUsePredictor(t *testing.T) {
	p := NewLoadUse()
	if !p.PredictHit() {
		t.Error("fresh predictor should predict hit")
	}
	// Miss burst drives it to predict miss (dec by 2 per miss).
	for i := 0; i < 8; i++ {
		p.Train(false)
	}
	if p.PredictHit() {
		t.Error("after miss burst still predicts hit")
	}
	// Hits recover it slowly.
	for i := 0; i < 16; i++ {
		p.Train(true)
	}
	if !p.PredictHit() {
		t.Error("did not recover to predicting hits")
	}
}

func TestStoreWait(t *testing.T) {
	s := NewStoreWait()
	pc := uint64(0x1234)
	if s.ShouldWait(pc, 0) {
		t.Error("fresh table forces wait")
	}
	s.MarkTrap(pc)
	if !s.ShouldWait(pc, 100) {
		t.Error("trap not remembered")
	}
	// Different PC unaffected.
	if s.ShouldWait(pc+4, 100) {
		t.Error("neighbor PC affected")
	}
	// Periodic clear.
	if s.ShouldWait(pc, 100+s.ClearInterval) {
		t.Error("table not cleared after interval")
	}
}

func TestStoreWaitNoClearWhenDisabled(t *testing.T) {
	s := NewStoreWait()
	s.ClearInterval = 0
	s.MarkTrap(0x10)
	if !s.ShouldWait(0x10, 1<<40) {
		t.Error("disabled clearing still cleared")
	}
}

// Counter-table import is a range-checked copy: values of the right
// count and width round-trip, and a wrong count or a value above the
// table's maximum is rejected without touching the table.
func TestCountersImport(t *testing.T) {
	for _, tc := range []struct {
		name string
		vals []uint32
		ok   bool
	}{
		{"equal length", []uint32{0, 1, 2, 3}, true},
		{"short", []uint32{0, 1, 2}, false},
		{"long", []uint32{0, 1, 2, 3, 0}, false},
		{"empty", nil, false},
		{"above maximum", []uint32{0, 1, 4, 3}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := NewCounters(4, 2, 1)
			err := tab.Import(tc.vals)
			if (err == nil) != tc.ok {
				t.Fatalf("Import(%v) error = %v, want ok=%v", tc.vals, err, tc.ok)
			}
			want := []uint32{1, 1, 1, 1}
			if tc.ok {
				want = tc.vals
			}
			if got := tab.Export(); !reflect.DeepEqual(got, want) {
				t.Errorf("table after Import = %v, want %v", got, want)
			}
		})
	}
}

// A tournament predictor refuses a state whose counters exceed its
// configured width.
func TestTournamentImportRejectsOutOfRange(t *testing.T) {
	tr := NewTournament(DefaultTournamentConfig())
	st := tr.Export()
	st.GlobalCtr[7] = 4 // 2-bit counters
	if err := tr.Import(st); err == nil {
		t.Fatal("Import accepted a 2-bit counter holding 4")
	}
	st.GlobalCtr[7] = 3
	if err := tr.Import(st); err != nil {
		t.Fatal(err)
	}
}
