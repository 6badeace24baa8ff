package predict

import "fmt"

// Checkpoint state export/import for the predictors functional
// warming trains: the tournament predictor and the line and way
// predictors (warmed by the alpha models) plus plain Counters
// tables (the inorder bimodal). The RAS and the load-use and
// store-wait predictors track in-flight pipeline state, which drains
// at every sample boundary, so a restored run and a cold
// warmed-forward run both start them fresh. The line predictor in
// particular must round-trip: its entries alias heavily on large
// codes, so a cold (all-sequential) table systematically outperforms
// a trained one and an unwarmed restore reads biased-fast.

// Export renders the table as raw values.
func (t *Counters) Export() []uint32 { return append([]uint32(nil), t.vals...) }

// Import restores raw values into a table of the same size. A value
// above the table's maximum cannot come from a table of this geometry
// and is rejected.
func (t *Counters) Import(vals []uint32) error {
	if len(vals) != len(t.vals) {
		return fmt.Errorf("predict: counter state has %d entries, table has %d", len(vals), len(t.vals))
	}
	for i, v := range vals {
		if v > t.max {
			return fmt.Errorf("predict: counter state entry %d is %d, above the table maximum %d", i, v, t.max)
		}
	}
	copy(t.vals, vals)
	return nil
}

// TournamentState is the full serializable state of a tournament
// predictor: history registers, all three counter tables, and the
// accounting counters.
type TournamentState struct {
	LocalHist []uint32
	LocalCtr  []uint32
	GlobalCtr []uint32
	ChoiceCtr []uint32

	SpecHist uint32
	RetHist  uint32

	Lookups     uint64
	Mispredicts uint64
}

// Export snapshots the predictor.
func (t *Tournament) Export() TournamentState {
	return TournamentState{
		LocalHist:   append([]uint32(nil), t.localHist...),
		LocalCtr:    t.localCtr.Export(),
		GlobalCtr:   t.globalCtr.Export(),
		ChoiceCtr:   t.choiceCtr.Export(),
		SpecHist:    t.specHist,
		RetHist:     t.retHist,
		Lookups:     t.Lookups,
		Mispredicts: t.Mispredicts,
	}
}

// Import restores a snapshot taken from a predictor of the same
// geometry.
func (t *Tournament) Import(st TournamentState) error {
	if len(st.LocalHist) != len(t.localHist) {
		return fmt.Errorf("predict: local-history state has %d entries, predictor has %d",
			len(st.LocalHist), len(t.localHist))
	}
	if err := t.localCtr.Import(st.LocalCtr); err != nil {
		return fmt.Errorf("local counters: %w", err)
	}
	if err := t.globalCtr.Import(st.GlobalCtr); err != nil {
		return fmt.Errorf("global counters: %w", err)
	}
	if err := t.choiceCtr.Import(st.ChoiceCtr); err != nil {
		return fmt.Errorf("choice counters: %w", err)
	}
	copy(t.localHist, st.LocalHist)
	t.specHist, t.retHist = st.SpecHist, st.RetHist
	t.Lookups, t.Mispredicts = st.Lookups, st.Mispredicts
	return nil
}

// LineState is the full serializable state of a line predictor.
type LineState struct {
	Entries []uint64
	Valid   []bool

	Lookups     uint64
	Mispredicts uint64
}

// Export snapshots the line predictor.
func (l *Line) Export() LineState {
	return LineState{
		Entries:     append([]uint64(nil), l.entries...),
		Valid:       append([]bool(nil), l.valid...),
		Lookups:     l.Lookups,
		Mispredicts: l.Mispredicts,
	}
}

// Import restores a snapshot taken from a line predictor of the same
// geometry.
func (l *Line) Import(st LineState) error {
	if len(st.Entries) != len(l.entries) || len(st.Valid) != len(l.valid) {
		return fmt.Errorf("predict: line state has %d entries, predictor has %d",
			len(st.Entries), len(l.entries))
	}
	copy(l.entries, st.Entries)
	copy(l.valid, st.Valid)
	l.Lookups, l.Mispredicts = st.Lookups, st.Mispredicts
	return nil
}

// WayState is the full serializable state of a way predictor.
type WayState struct {
	Ways  []uint8
	Valid []bool

	Lookups     uint64
	Mispredicts uint64
}

// Export snapshots the way predictor.
func (w *Way) Export() WayState {
	return WayState{
		Ways:        append([]uint8(nil), w.ways...),
		Valid:       append([]bool(nil), w.valid...),
		Lookups:     w.Lookups,
		Mispredicts: w.Mispredicts,
	}
}

// Import restores a snapshot taken from a way predictor of the same
// geometry.
func (w *Way) Import(st WayState) error {
	if len(st.Ways) != len(w.ways) || len(st.Valid) != len(w.valid) {
		return fmt.Errorf("predict: way state has %d entries, predictor has %d",
			len(st.Ways), len(w.ways))
	}
	copy(w.ways, st.Ways)
	copy(w.valid, st.Valid)
	w.Lookups, w.Mispredicts = st.Lookups, st.Mispredicts
	return nil
}
