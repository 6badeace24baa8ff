package repro

// One benchmark per table and figure of the paper's evaluation. Each
// regenerates its experiment end-to-end (all machines, all workloads)
// with truncated run lengths so a -bench=. pass stays tractable; the
// qualitative relationships the paper reports are stable under the
// truncation (see EXPERIMENTS.md). Full-length regeneration is
// `go run ./cmd/validate`.

import (
	"bytes"
	"testing"

	"repro/internal/cpu"
	"repro/internal/model"
	"repro/internal/validate"
	"repro/internal/workgen"
)

// benchOpt truncates each workload; experiments still run every
// machine on every benchmark. Parallelism 0 fans cells across all
// CPUs (the cmd/validate default).
var benchOpt = validate.Options{Limit: 15_000}

// BenchmarkTable1 measures the instruction-latency conformance table
// (Table 1): nine dependent-chain kernels on sim-alpha.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := validate.Table1(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Serial pins the experiment engine to one worker, the
// baseline for the parallel speedup measured by BenchmarkTable3.
func BenchmarkTable3Serial(b *testing.B) {
	opt := benchOpt
	opt.Parallelism = 1
	for i := 0; i < b.N; i++ {
		if _, err := validate.Table3(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates the microbenchmark validation (Table
// 2): 21 microbenchmarks across the native machine, sim-initial,
// sim-alpha and sim-outorder.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := validate.Table2(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if res.MeanAlphaErr >= res.MeanInitialErr {
			b.Fatal("validation did not reduce error")
		}
	}
}

// BenchmarkMemCalibration regenerates the Section 4.2 DRAM parameter
// sweep: 48 configurations against the native machine on M-M, STREAM
// and lmbench.
func BenchmarkMemCalibration(b *testing.B) {
	opt := validate.Options{Limit: 20_000}
	for i := 0; i < b.N; i++ {
		if _, err := validate.MemoryCalibration(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the macrobenchmark validation (Table
// 3): ten SPEC2000 proxies across four machines.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := validate.Table3(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if res.OutorderHMean <= res.NativeHMean {
			b.Fatal("sim-outorder not optimistic")
		}
	}
}

// BenchmarkTable4 regenerates the feature ablation (Table 4): ten
// single-feature-removed configurations on the macro suite.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := validate.Table4(benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 regenerates the stability matrix (Table 5): three
// optimizations across thirteen simulator configurations.
func BenchmarkTable5(b *testing.B) {
	opt := validate.Options{Limit: 8_000}
	for i := 0; i < b.N; i++ {
		if _, err := validate.Table5(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the register-file sensitivity study
// (Figure 2): three register-file configurations on the abstract
// 8-way simulator and on sim-alpha.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := validate.Figure2(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if res.AbstractHMean[0] <= res.AlphaHMean[0] {
			b.Fatal("abstract simulator not optimistic")
		}
	}
}

// BenchmarkMemory regenerates the memory-system error experiment:
// flat DRAM vs cycle-accurate DDR on the calibration suite and
// macrobenchmarks, including the coordinate-descent DDR calibration
// and the six-variant controller tier comparison.
func BenchmarkMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := validate.Memory(benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		if res.CalMemErr >= res.FlatMemErr {
			b.Fatal("calibrated DDR not beating flat DRAM")
		}
	}
}

// The sampled-vs-full pair measures the sampling subsystem's cost
// reduction at a realistic operating point: the longest
// macrobenchmark (gcc, ~810k dynamic instructions) near full length.
// BenchmarkGccFull is the baseline; BenchmarkGccSampled runs the same
// stream under the interval schedule and reports the detailed
// instructions actually simulated — the acceptance bar is a >= 5x
// reduction at <= 2% CPI error (asserted by TestSampledOperatingPoint
// in invariants_test.go).

const (
	sampledBenchLimit = 750_000
)

// sampledBenchPlan is the gcc operating point: one hundred
// 7.5k-instruction periods, 1.5k detailed each (half warmup, half
// measurement), 20% detail = 5x. Many small windows beat few large
// ones at the same budget: with functional warming now faithful to
// timed history (prefetch, line/way training), the residual error is
// window-selection bias, which shrinks with the number of windows.
var sampledBenchPlan = SamplePlan{Period: 7_500, Warmup: 750, Measure: 750}

func gccWorkload(b *testing.B) Workload {
	w, ok := WorkloadByName("gcc")
	if !ok {
		b.Fatal("no gcc workload")
	}
	w.MaxInstructions = sampledBenchLimit
	return w
}

func BenchmarkGccFull(b *testing.B) {
	m := SimAlpha()
	w := gccWorkload(b)
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := m.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		insts = res.Instructions
	}
	b.ReportMetric(float64(insts), "detailed_insts")
}

func BenchmarkGccSampled(b *testing.B) {
	m := SimAlpha()
	w := gccWorkload(b)
	var est SampledEstimates
	for i := 0; i < b.N; i++ {
		var err error
		est, err = RunSampled(m, w, sampledBenchPlan)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(est.DetailedInstructions()), "detailed_insts")
	b.ReportMetric(est.Speedup(), "speedup")
}

// BenchmarkGccCheckpointSampled measures the checkpointed-sampling
// path against a pre-recorded library (recording cost excluded: a
// library is recorded once and reused across every configuration
// sharing its compat fingerprint). The acceptance bar is a >= 10x
// detailed+warming reduction at <= 0.2% CPI error, asserted by
// TestCheckpointSampledOperatingPoint in invariants_test.go.
func BenchmarkGccCheckpointSampled(b *testing.B) {
	m := SimAlpha()
	w := gccWorkload(b)
	plan := CheckpointLibraryPlan(sampledBenchLimit)
	lib, err := BuildCheckpointLibrary(m, w, plan)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var est SampledEstimates
	for i := 0; i < b.N; i++ {
		est, err = RunCheckpointSampled(m, w, lib, plan, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(est.DetailedInstructions()), "detailed_insts")
	b.ReportMetric(est.Speedup(), "speedup")
}

// BenchmarkCheckpointRestore isolates one checkpointed interval:
// restore a single gcc library state into sim-alpha and run its
// detailed window (750 warm-up and 750 measured instructions), as
// RunCheckpointSampled does once per interval. Its B/op and allocs/op
// are one restore's building and copying cost plus the window's own.
func BenchmarkCheckpointRestore(b *testing.B) {
	m := SimAlpha()
	w := gccWorkload(b)
	plan := CheckpointLibraryPlan(sampledBenchLimit)
	lib, err := BuildCheckpointLibrary(m, w, plan)
	if err != nil {
		b.Fatal(err)
	}
	w.Checkpoint = lib.States[len(lib.States)/2]
	w.MaxInstructions = plan.Detailed()
	w.Sample = &SamplePlan{Period: plan.Detailed(), Warmup: plan.Warmup, Measure: plan.Measure, MaxIntervals: 1}
	b.ResetTimer()
	var res RunResult
	for i := 0; i < b.N; i++ {
		if res, err = m.Run(w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Sampled.DetailedInstructions), "detailed_insts")
}

// loadSink keeps BenchmarkProgramLoad's loads from being optimized
// away.
var loadSink *cpu.CPU

// BenchmarkProgramLoad isolates the program-load layer (cpu.New) on
// the ten macro proxies; one op loads all ten. "first" is each
// program's first load, which builds its memory image from the data
// segments; "repeat" is every later load, which shares that image
// copy-on-write. The programs for "first" are decoded from object
// bytes outside the timer, so each op sees programs never loaded.
func BenchmarkProgramLoad(b *testing.B) {
	ws := Macrobenchmarks()
	objs := make([][]byte, len(ws))
	for i, w := range ws {
		var buf bytes.Buffer
		if err := SaveProgram(&buf, w.Prog); err != nil {
			b.Fatal(err)
		}
		objs[i] = buf.Bytes()
	}
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, obj := range objs {
				b.StopTimer()
				p, err := LoadProgram(bytes.NewReader(obj))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				loadSink = cpu.New(p)
			}
		}
	})
	b.Run("repeat", func(b *testing.B) {
		for _, w := range ws {
			loadSink = cpu.New(w.Prog)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, w := range ws {
				loadSink = cpu.New(w.Prog)
			}
		}
	})
}

// BenchmarkWorkgenGenerate measures pure workload synthesis: spec to
// assembled program, no simulation. Generation must stay cheap enough
// to rebuild programs on every worker rather than ship code bytes.
func BenchmarkWorkgenGenerate(b *testing.B) {
	spec := DefaultWorkloadSpec()
	spec.ConflictWays = 8
	spec.TrapDensity = 2
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i + 1)
		if _, err := GenerateWorkload(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCliffSweep measures one generated cliff family end-to-end:
// synthesize the l1-size family against the sim-alpha geometry and
// run every member on the detailed model — the unit of work the
// attribution experiment fans out per family per tier.
func BenchmarkCliffSweep(b *testing.B) {
	cfg := model.DefaultAlphaConfig()
	target := workgen.TargetFrom(cfg.Hier, cfg.Tour.LocalHistBits, cfg.IntIssueWidth)
	var family WorkloadFamily
	for _, f := range workgen.CliffSuite(target) {
		if f.Name == "l1-size" {
			family = f
		}
	}
	ws, err := GenerateFamily(family)
	if err != nil {
		b.Fatal(err)
	}
	m := SimAlpha()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			w.MaxInstructions = 15_000
			if _, err := m.Run(w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimAlphaThroughput measures the simulator itself: dynamic
// instructions simulated per second on the validated model.
func BenchmarkSimAlphaThroughput(b *testing.B) {
	m := SimAlpha()
	w, _ := WorkloadByName("E-I")
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := m.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Instructions
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkSimAlphaDDRThroughput measures the DDR-backed detailed
// model: the same workload through the banked memory controller
// instead of the flat latency table, so the trajectory tracks what
// the cycle-accurate memory subsystem costs.
func BenchmarkSimAlphaDDRThroughput(b *testing.B) {
	m := SimAlphaDDR()
	w, _ := WorkloadByName("E-I")
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := m.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Instructions
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkNativeThroughput does the same for the reference machine.
func BenchmarkNativeThroughput(b *testing.B) {
	m := NativeDS10L()
	w, _ := WorkloadByName("E-I")
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := m.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Instructions
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}
