package cache

import (
	"testing"

	"repro/internal/dram"
)

func BenchmarkCacheProbeHit(b *testing.B) {
	c := New(Config{Name: "b", SizeBytes: 64 << 10, BlockBytes: 64, Assoc: 2, HitLatency: 3})
	c.Insert(0x1000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Probe(0x1000, false)
	}
}

func BenchmarkHierarchyDataResident(b *testing.B) {
	h := NewHierarchy(DS10L(), dram.New(dram.DS10LConfig()))
	h.Data(0x1000, false, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Data(0x1000, false, uint64(i)+1000)
	}
}

// Ablation bench: shared versus per-cache miss address files on a
// miss-heavy stream (the native machine shares one MAF; sim-alpha
// splits them — a documented modeling difference).
func BenchmarkSharedMAFStream(b *testing.B) {
	benchMAF(b, true)
}

func BenchmarkSplitMAFStream(b *testing.B) {
	benchMAF(b, false)
}

func benchMAF(b *testing.B, shared bool) {
	cfg := DS10L()
	cfg.SharedMAF = shared
	h := NewHierarchy(cfg, dram.New(dram.DS10LConfig()))
	now := uint64(0)
	var total int
	for i := 0; i < b.N; i++ {
		res := h.Data(uint64(i)*64, false, now)
		total += res.Latency
		now += 64
	}
	if b.N > 0 {
		b.ReportMetric(float64(total)/float64(b.N), "cycles/access")
	}
}
