package alpha

import (
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fingerprint"
	"repro/internal/isa"
	"repro/internal/predict"
)

// Compat fingerprints the warm-relevant configuration: everything the
// warmer reads — the memory hierarchy (mapping policy included), the
// warmed-predictor geometry, and the I-prefetch feature and fetch
// width that shape the warmed I-cache and the line and way
// predictors. Machines that differ only in other core parameters (ROB
// size, issue widths, latencies) share a fingerprint, so one
// checkpoint library serves a whole design-space sweep over them. The
// rendering is hashed so the tag is a fixed-width opaque token —
// usable in filenames and log lines, never colliding on a shared
// struct-rendering prefix.
func (m *Machine) Compat() string {
	m.compatOnce.Do(func() { m.compat = compatOf(m.cfg) })
	return m.compat
}

// compatOf computes the Compat tag of a configuration.
func compatOf(cfg Config) string {
	return checkpoint.Hash([]byte(fingerprint.Of(struct {
		Hier       cache.HierarchyConfig
		Tour       predict.TournamentConfig
		IPrefetch  bool
		FetchWidth int
	}{cfg.Hier, cfg.Tour, cfg.Feat.IPrefetch, cfg.FetchWidth})))
}

// warmState holds what functional warming keeps warm in the
// 21264-family models — the memory hierarchy and the tournament, line
// and way predictors — together with the configuration the pipeline
// and the warmer read. newSim embeds it; the record pass builds it
// alone.
type warmState struct {
	cfg  Config
	hier *cache.Hierarchy
	tour *predict.Tournament
	line *predict.Line
	way  *predict.Way
}

func newWarmState(cfg Config, mem cache.Memory) warmState {
	return warmState{
		cfg:  cfg,
		hier: cache.NewHierarchy(cfg.Hier, mem),
		tour: predict.NewTournament(cfg.Tour),
		line: predict.NewLine(cfg.Hier.L1I.SizeBytes / 16),
		way:  predict.NewWay(cfg.Hier.L1I.Sets()),
	}
}

// Hierarchy implements core.Warm.
func (ws *warmState) Hierarchy() *cache.Hierarchy { return ws.hier }

// Warmer implements core.Warm: every record is run through the caches
// (per-line on the I-side, as fetch does) and the direction
// predictor, and a warm I-miss triggers the same sequential line
// prefetches the timed front end issues — without them, warmed
// I-cache contents drift measurably from timed history (both the
// extra coverage and the pollution are missing) and checkpointed
// sampling reads biased-fast. This single function defines what "warm
// state" means for the 21264-family models.
func (ws *warmState) Warmer() func(cpu.Record) {
	hier, tour, line, way := ws.hier, ws.tour, ws.line, ws.way
	iprefetch, fetchWidth := ws.cfg.Feat.IPrefetch, ws.cfg.FetchWidth
	blockBytes := uint64(ws.cfg.Hier.L1I.BlockBytes)
	warmLine := uint64(1) << 63
	// Fetch-packet reconstruction for line/way-predictor training:
	// packets are maximal runs of sequential instructions within one
	// octaword (capped at FetchWidth) ending at the first taken
	// branch — exactly how the front end forms them, minus the
	// occasional split when the ROB backs up. When a packet ends, the
	// line predictor learns the next packet's address and the way
	// predictor the packet's resident I-cache way, as fetch trains
	// them.
	pktStart := uint64(1) << 63
	pktLen := 0
	var pktPrev cpu.Record
	return func(rec cpu.Record) {
		if ln := rec.PC &^ 63; ln != warmLine {
			if miss := hier.WarmInst(rec.PC); miss && iprefetch {
				for i := uint64(1); i <= 4; i++ {
					hier.WarmPrefetchInst(rec.PC + i*blockBytes)
				}
			}
			warmLine = ln
		}
		switch {
		case pktLen == 0:
			pktStart, pktLen = rec.PC, 1
		case pktLen < fetchWidth &&
			!(pktPrev.IsBranch() && pktPrev.Taken) &&
			rec.PC == pktPrev.PC+isa.WordBytes &&
			rec.PC&^15 == pktStart&^15:
			pktLen++
		default:
			line.Train(pktStart, rec.PC)
			set, w := hier.InstPlacement(pktStart)
			way.Train(set, w)
			pktStart, pktLen = rec.PC, 1
		}
		pktPrev = rec
		cls := rec.Inst.Op.Class()
		if cls.IsMem() {
			hier.WarmData(rec.EA, cls.IsStore())
		} else if cls == isa.ClassCondBr {
			tour.Resolve(rec.PC, rec.Taken)
		}
	}
}

// ExportPredictors implements core.Warm.
func (ws *warmState) ExportPredictors(st *checkpoint.State) {
	ts, ls, wy := ws.tour.Export(), ws.line.Export(), ws.way.Export()
	st.Tour, st.Line, st.Way = &ts, &ls, &wy
}

// ImportPredictors implements core.Warm.
func (ws *warmState) ImportPredictors(st *checkpoint.State) error {
	if err := ws.tour.Import(*st.Tour); err != nil {
		return err
	}
	if err := ws.line.Import(*st.Line); err != nil {
		return err
	}
	return ws.way.Import(*st.Way)
}

// RecordCheckpoints implements core.CheckpointRecorder: one
// functional pass warming the hierarchy and the tournament, line and
// way predictors exactly as a timed run's skip path would.
func (m *Machine) RecordCheckpoints(w core.Workload, positions []uint64) ([]*checkpoint.State, error) {
	ws := newWarmState(m.cfg, m.memory())
	return core.RecordCheckpoints(m, checkpoint.ModelAlpha, w, positions, &ws)
}
