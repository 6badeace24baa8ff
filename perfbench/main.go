// Command perfbench is the repository's benchmark. One process runs one
// workload, seeded by an argument, and prints every metric by name with
// its unit; the last line of standard output is one JSON object.
//
//	bash perfbench/run.sh --workload grid-short --seed 1 --seconds 28 --trace 0
//
// Workloads (README.md says why each is included):
//
//   - grid-short: the Table-3-shaped validation grid as a closed batch
//     through runner.Map at parallelism 2.
//   - long-detailed: full-length runs, one at a time.
//   - sampled-gcc: SMARTS and checkpointed sampling of gcc, one to two.
//   - serve-mixed: a service.Server with a diskstore second tier, driven
//     over loopback HTTP by 1 closed-loop client.
//
// Every operation's simulated result is checked against expected.json,
// recorded with -record from the code the benchmark was defined on. With
// --trace 0 the run measures end-to-end metrics untraced. With --trace 1
// it measures half the time untraced (for the tracing overhead and the
// hit/miss split) and half traced on a fresh set-up, and prints the
// per-layer metrics; spans are written to .bench_build/trace/.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/model"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 15

// workers bounds the goroutines or client connections that generate
// load, sized for a 2-vCPU host.
const workers = 2

// instance is one workload after set-up, ready to measure.
type instance interface {
	// measure runs operations until p's deadline and records them.
	measure(p *phase) error
	// refKeys names the reference pass: the workload's distinct
	// operations in sequence order, which every run completes. Simulated
	// per-layer counts are summed over it, so they do not depend on how
	// many operations fit in the time.
	refKeys() []string
	// cpiErr is the workload's model-accuracy figure, in percent, from
	// the reference pass.
	cpiErr(res map[string]simResult, oracle map[string]outcome) (float64, error)
	// layers adds the per-layer values only the workload knows.
	layers(p *phase, out map[string]float64)
	close() error
}

type workloadDef struct {
	name string
	// tailP is the percentile op_cpu_tail_ms reports, fixed by tailPercentile
	// applied to half the operations a 28 s run on the development seed
	// completes (noted beside each workload).
	tailP float64
	// setup builds an instance. Warm-up operations run in warm and are
	// checked like measured ones. build receives program-build layer
	// timings.
	setup func(seed uint64, warm *phase, build map[string]float64) (instance, error)
}

var workloads = []workloadDef{
	{"grid-short", 95, setupGrid},     // 1.8k operations
	{"long-detailed", 75, setupLong},  // 85
	{"sampled-gcc", 90, setupSampled}, // 330
	{"serve-mixed", 99.9, setupServe}, // 135k
}

// opResult is one completed operation.
type opResult struct {
	lat    time.Duration // wall time
	cpu    time.Duration // CPU time, as cpuMeter attributes it
	insts  uint64        // instructions a timing model simulated for it; 0 for a cache hit
	served bool          // an HTTP request, so hit is meaningful
	hit    bool
	failed bool
}

// phase collects one measured phase.
type phase struct {
	tr       *tracer
	deadline time.Time
	oracle   map[string]outcome
	nextOp   atomic.Int64
	cpu      cpuMeter

	lastCalib time.Time

	mu        sync.Mutex
	calib     []time.Duration // calibration ops' CPU time, in run order
	calibWall time.Duration
	ops       []opResult
	failures  []string
	results   map[string]simResult // first result per oracle key
	acc       map[string]float64   // per-layer sums the workloads add to
}

func newPhase(oracle map[string]outcome, tr *tracer) *phase {
	return &phase{tr: tr, oracle: oracle, results: map[string]simResult{}, acc: map[string]float64{}}
}

func (p *phase) expired() bool { return !time.Now().Before(p.deadline) }

// newOp starts an operation's CPU time and returns its ID; endOp ends it.
func (p *phase) newOp() int64 {
	op := p.nextOp.Add(1)
	p.cpu.start(op)
	return op
}

func (p *phase) endOp(op int64) time.Duration { return p.cpu.stop(op) }

func (p *phase) record(o opResult) {
	p.mu.Lock()
	p.ops = append(p.ops, o)
	p.mu.Unlock()
}

func (p *phase) add(name string, v float64) {
	p.mu.Lock()
	p.acc[name] += v
	p.mu.Unlock()
}

func (p *phase) failf(format string, args ...any) {
	p.mu.Lock()
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
	p.mu.Unlock()
}

// check compares a simulated result with the oracle and keeps the first
// result per key. It reports whether the result matched.
func (p *phase) check(key string, r simResult) bool {
	want, ok := p.oracle[key]
	p.mu.Lock()
	if _, seen := p.results[key]; !seen {
		p.results[key] = r
	}
	p.mu.Unlock()
	switch {
	case !ok:
		p.failf("%s: no expected value", key)
		return false
	case want != r.outcome:
		p.failf("%s: got %+v, want %+v", key, r.outcome, want)
		return false
	}
	return true
}

// module names the model package behind a backend, for layer names.
func module(backend string) string {
	switch backend {
	case "sim-alpha":
		return "alpha"
	case "sim-outorder":
		return "ruu"
	case "sim-interval":
		return "interval"
	case "native-ds10l":
		return "native"
	case "sim-alpha-ddr":
		return "alpha-ddr"
	}
	return backend
}

var backendModules = []string{"alpha", "ruu", "interval", "native", "alpha-ddr"}

// simulate runs one cell through model.New(..).Run as one operation and
// checks its result. In a traced run it then replays the cell's program
// load and functional stream outside the operation's time.
func (p *phase) simulate(backend string, w core.Workload, key string) opResult {
	op := p.newOp()
	root := p.tr.begin(op, -1, "op")
	start := time.Now()
	sp := p.tr.begin(op, root, "run."+module(backend))
	m, err := model.New(backend)
	var res core.RunResult
	if err == nil {
		res, err = m.Run(w)
	}
	p.tr.end(sp)
	o := opResult{lat: time.Since(start), cpu: p.endOp(op)}
	p.tr.end(root)
	if err != nil {
		p.failf("%s: %v", key, err)
		o.failed = true
		return o
	}
	r := fromRun(res)
	o.insts = r.Insts
	o.failed = !p.check(key, r)
	if p.tr != nil {
		p.add(module(backend)+".insts", float64(r.Insts))
		p.replay(op, w.Prog, r.Insts)
	}
	return o
}

// replay times the program load (cpu.New) and insts steps of the
// functional stream (cpu.Next) of one operation, under a "replay" root
// that shares the operation's ID.
func (p *phase) replay(op int64, prog *asm.Program, insts uint64) {
	root := p.tr.begin(op, -1, "replay")
	sp := p.tr.begin(op, root, "cpu.load")
	c := cpu.New(prog)
	p.tr.end(sp)
	sp = p.tr.begin(op, root, "cpu.next")
	var n uint64
	for n < insts {
		if _, ok := c.Next(); !ok {
			break
		}
		n++
	}
	p.tr.end(sp)
	p.tr.end(root)
	p.add("vm.pages", float64(c.Mem.TouchedPages()))
	p.add("cpu.insts", float64(n))
}

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"op_cpu_p50_ms", "ms"},
	{"op_cpu_tail_ms", "ms"},
	{"sim_minsts_per_cpu_s", "Minst/s"},
	{"alloc_mb_per_op", "MB"},
	{"cpi_err_pct", "%"},
}

// perLayer is every metric the traced run prints, on every workload; a
// layer a workload does not reach reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"macrobench.suite_ms", "ms"}, {"workgen.generate_ms", "ms"}, {"asm.image_mb", "MB"},
		{"cpu.load_ms", "ms"}, {"cpu.loads", "count"}, {"vm.load_mb", "MB"}, {"vm.pages", "count"},
		{"cpu.next_ms", "ms"}, {"cpu.insts", "count"}, {"cpu.ns_per_inst", "ns"},
	}
	for _, m := range backendModules {
		defs = append(defs, metricDef{m + ".run_ms", "ms"}, metricDef{m + ".insts", "count"}, metricDef{m + ".ns_per_inst", "ns"})
	}
	defs = append(defs,
		metricDef{"dcache_misses", "count"}, metricDef{"l2_misses", "count"}, metricDef{"br_mispredicts", "count"},
		metricDef{"dram_row_hits", "count"}, metricDef{"dram_bank_conflicts", "count"}, metricDef{"dram_queue_waits", "cycles"})
	for c := events.Component(0); c < events.NumComponents; c++ {
		defs = append(defs, metricDef{"stack." + c.Name() + "_cycles", "cycles"})
	}
	return append(defs,
		metricDef{"runner.cells", "count"}, metricDef{"runner.busy_s", "s"},
		metricDef{"runner.parallel_eff", "ratio"}, metricDef{"runner.critical_cell_ms", "ms"},
		metricDef{"checkpoint.library_build_ms", "ms"}, metricDef{"checkpoint.library_mb", "MB"},
		metricDef{"sample.smarts_ms", "ms"}, metricDef{"sample.ckpt_ms", "ms"},
		metricDef{"sample.detailed_insts", "count"}, metricDef{"sample.speedup", "ratio"},
		metricDef{"simcache.hits", "count"}, metricDef{"simcache.misses", "count"},
		metricDef{"simcache.tier2_hits", "count"}, metricDef{"simcache.evictions", "count"},
		metricDef{"simcache.hit_ratio", "ratio"}, metricDef{"fingerprint.key_us", "us"},
		metricDef{"diskstore.get_ms", "ms"}, metricDef{"diskstore.gets", "count"},
		metricDef{"diskstore.get_hit_ratio", "ratio"}, metricDef{"diskstore.put_ms", "ms"},
		metricDef{"diskstore.puts", "count"}, metricDef{"diskstore.put_mb", "MB"},
		metricDef{"diskstore.corrupt_reads", "count"},
		metricDef{"service.requests", "count"}, metricDef{"service.non200", "count"},
		metricDef{"service.handler_ms", "ms"}, metricDef{"service.client_overhead_ms", "ms"},
		metricDef{"service.miss_p50_ms", "ms"}, metricDef{"service.miss_tail_ms", "ms"},
		metricDef{"service.hit_p50_ms", "ms"}, metricDef{"service.hit_tail_ms", "ms"},
		metricDef{"error_rate", "ratio"},
		metricDef{"trace.coverage", "ratio"}, metricDef{"trace.unattributed", "ratio"},
		metricDef{"trace.load_share", "ratio"}, metricDef{"trace.functional_share", "ratio"},
		metricDef{"trace.core_share", "ratio"}, metricDef{"trace.overhead_pct", "%"},
		metricDef{"host.calib_ms", "ms"}, metricDef{"host.calib_drift", "ratio"},
		metricDef{"host.wall_ops_per_s", "1/s"}, metricDef{"host.steal_pct", "%"},
	)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traced := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	record := fs.String("record", "", "run every operation the workloads can run, write their outcomes to this file, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordOracle(*record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	rep, err := runWorkload(*def, *seed, *seconds, *traced == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// measured is one measured phase with its totals. Calibration ops are
// left out of elapsed and cpu.
type measured struct {
	p       *phase
	elapsed time.Duration // wall time
	cpu     time.Duration // process CPU time
	steal   float64       // share of the host's vCPU time stolen, in percent
	alloc   uint64
	ref     []simResult
	refSum  string // digest over the reference pass
}

func measure(inst instance, oracle map[string]outcome, seconds float64, tr *tracer) (*measured, error) {
	p := newPhase(oracle, tr)
	calibTable()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ticks0 := readTicks()
	cpu0 := processCPU()
	start := time.Now()
	p.deadline = start.Add(time.Duration(seconds * float64(time.Second)))
	if err := inst.measure(p); err != nil {
		return nil, err
	}
	elapsed := time.Since(start) - p.calibWall
	cpu := processCPU() - cpu0 - p.calibCPU()
	steal := stealPct(ticks0, readTicks())
	runtime.ReadMemStats(&m1)
	m := &measured{p: p, elapsed: elapsed, cpu: cpu, steal: steal, alloc: m1.TotalAlloc - m0.TotalAlloc}
	var sum strings.Builder
	for _, k := range inst.refKeys() {
		r, ok := p.results[k]
		if !ok {
			p.failf("reference pass incomplete: %s never ran", k)
			continue
		}
		m.ref = append(m.ref, r)
		fmt.Fprintf(&sum, "%s=%s;", k, r.Digest)
	}
	m.refSum = sum.String()
	return m, nil
}

// failed counts the phase's failures. A failed operation reports
// exactly one failure; a failure not tied to one operation (an
// incomplete reference pass) counts once too.
func (m *measured) failed() int { return len(m.p.failures) }

func runWorkload(def workloadDef, seed uint64, seconds float64, traced bool, out io.Writer) (*report, error) {
	oracle, err := loadOracle()
	if err != nil {
		return nil, err
	}
	warm := newPhase(oracle, nil)
	var setups []float64
	var inst instance
	// Program-build layer timings come from the first set-up; the
	// service's catalogue is built once per process.
	build := map[string]float64{}
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		start := processCPU()
		b := build
		if i > 0 {
			b = map[string]float64{}
		}
		inst, err = def.setup(seed, warm, b)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setups = append(setups, (processCPU() - start).Seconds())
	}
	fmt.Fprintf(out, "set-up CPU times (s): %v\n", setups)
	phaseSecs := seconds
	if traced {
		phaseSecs = seconds / 2
	}
	plain, err := measure(inst, oracle, phaseSecs, nil)
	if closeErr := inst.close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return nil, err
	}
	rep := &report{Metrics: map[string]metricValue{}}
	phases := []*measured{plain}
	if !traced {
		e2e, err := endToEndMetrics(plain, inst, oracle, def.tailP, setups, out)
		if err != nil {
			return nil, err
		}
		for _, d := range endToEnd {
			rep.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
	} else {
		tr := newTracer()
		inst, err = def.setup(seed, warm, map[string]float64{})
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		tm, err := measure(inst, oracle, phaseSecs, tr)
		if err == nil {
			if tm.refSum != plain.refSum {
				tm.p.failf("traced and untraced reference passes differ")
			}
			layers := layerMetrics(tm, plain, inst, build, out)
			for _, d := range perLayer {
				rep.Metrics[d.name] = metricValue{layers[d.name], d.unit}
			}
			path := fmt.Sprintf(".bench_build/trace/%s-seed%d.json", def.name, seed)
			if werr := tr.write(path); werr != nil {
				err = werr
			} else {
				fmt.Fprintf(out, "spans written to %s\n", path)
			}
			printLayerReport(out, def.name, layers)
		}
		if closeErr := inst.close(); err == nil {
			err = closeErr
		}
		if err != nil {
			return nil, err
		}
		phases = append(phases, tm)
	}
	rep.Attempted = len(warm.ops)
	rep.Failed = len(warm.failures)
	for _, m := range phases {
		rep.Attempted += len(m.p.ops)
		rep.Failed += m.failed()
	}
	shown := []*phase{warm}
	for _, m := range phases {
		shown = append(shown, m.p)
	}
	for _, ph := range shown {
		for i, f := range ph.failures {
			if i == 5 {
				fmt.Fprintf(out, "... %d more failures\n", len(ph.failures)-i)
				break
			}
			fmt.Fprintln(out, "FAIL", f)
		}
	}
	if rep.Attempted == 0 {
		return nil, errors.New("no operation ran")
	}
	fmt.Fprintf(out, "reference pass digest %s\n", shortDigest(plain.refSum))
	rep.Correct = rep.Failed == 0
	return rep, nil
}

func shortDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

func endToEndMetrics(m *measured, inst instance, oracle map[string]outcome, tailP float64, setups []float64, out io.Writer) (map[string]float64, error) {
	ops := m.p.ops
	if len(ops) == 0 {
		return nil, errors.New("no operation completed in the measured phase")
	}
	cpus := make([]time.Duration, len(ops))
	var insts uint64
	var simCPU time.Duration // CPU time of the operations that simulated
	for i, o := range ops {
		cpus[i] = o.cpu
		if o.insts > 0 {
			insts += o.insts
			simCPU += o.cpu
		}
	}
	l := summarise(cpus, tailP)
	cpiErr, err := inst.cpiErr(m.p.results, oracle)
	if err != nil {
		m.p.failf("cpi_err_pct: %v", err)
	}
	cpuSecs := m.cpu.Seconds()
	fmt.Fprintf(out, "%d operations in %.3f s wall, %.3f s CPU (%.1f%% of the host's vCPU time stolen); op_cpu_tail_ms is %v\n",
		len(ops), m.elapsed.Seconds(), cpuSecs, m.steal, l)
	driftOf(m.p.calib).report(out)
	return map[string]float64{
		"setup_s":              median(setups),
		"cpu_ms_per_op":        1000 * cpuSecs / float64(len(ops)),
		"op_cpu_p50_ms":        l.p50,
		"op_cpu_tail_ms":       l.tail,
		"sim_minsts_per_cpu_s": float64(insts) / simCPU.Seconds() / 1e6,
		"alloc_mb_per_op":      float64(m.alloc) / float64(len(ops)) / 1e6,
		"cpi_err_pct":          cpiErr,
	}, nil
}

// opSpans gathers one operation's spans by name.
type opSpans struct {
	root    *span
	sim     *span // the span of the simulation call inside the operation
	handler *span
	load    *span
	next    *span
}

func layerMetrics(tm, plain *measured, inst instance, build map[string]float64, log io.Writer) map[string]float64 {
	out := map[string]float64{}
	for k, v := range build {
		out[k] = v
	}
	p := tm.p
	spans := p.tr.snapshot()
	byOp := map[int64]*opSpans{}
	get := func(op int64) *opSpans {
		s := byOp[op]
		if s == nil {
			s = &opSpans{}
			byOp[op] = s
		}
		return s
	}
	count := map[string]int{}
	total := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		count[s.Name]++
		total[s.Name] += s.dur()
		if s.Op <= 0 {
			continue
		}
		switch {
		case s.Name == "op":
			get(s.Op).root = s
		case strings.HasPrefix(s.Name, "run.") || strings.HasPrefix(s.Name, "sample."):
			get(s.Op).sim = s
		case s.Name == "service.handler":
			get(s.Op).handler = s
		case s.Name == "cpu.load":
			get(s.Op).load = s
		case s.Name == "cpu.next":
			get(s.Op).next = s
		}
	}
	mean := func(name string) float64 { return ratio(msOf(total[name]), float64(count[name])) }

	out["cpu.loads"] = float64(count["cpu.load"])
	out["cpu.load_ms"] = mean("cpu.load")
	out["vm.pages"] = ratio(p.acc["vm.pages"], float64(count["cpu.load"]))
	out["vm.load_mb"] = out["vm.pages"] * 8192 / 1e6
	out["cpu.next_ms"] = mean("cpu.next")
	out["cpu.insts"] = p.acc["cpu.insts"]
	out["cpu.ns_per_inst"] = ratio(float64(total["cpu.next"].Nanoseconds()), p.acc["cpu.insts"])

	// A timing core's self time is its run minus the replayed load and
	// functional stream of the same operation.
	self := map[string]time.Duration{}
	var simWithReplay, loadT, nextT, handlerT, clientT time.Duration
	var handled int
	for _, s := range byOp {
		if s.root != nil && s.handler != nil {
			handled++
			handlerT += s.handler.dur()
			clientT += s.root.dur() - s.handler.dur()
		}
		sim := s.sim
		if sim == nil && s.handler != nil && s.load != nil {
			sim = s.handler // a simulated miss on serve-mixed
		}
		if sim == nil || s.load == nil || s.next == nil {
			continue
		}
		simWithReplay += sim.dur()
		loadT += s.load.dur()
		nextT += s.next.dur()
		if strings.HasPrefix(sim.Name, "run.") {
			self[strings.TrimPrefix(sim.Name, "run.")] += sim.dur() - s.load.dur() - s.next.dur()
		}
	}
	for _, m := range backendModules {
		runs := float64(count["run."+m])
		out[m+".run_ms"] = ratio(msOf(self[m]), runs)
		out[m+".insts"] = p.acc[m+".insts"]
		out[m+".ns_per_inst"] = ratio(float64(self[m].Nanoseconds()), p.acc[m+".insts"])
	}
	out["trace.load_share"] = ratio(float64(loadT), float64(simWithReplay))
	out["trace.functional_share"] = ratio(float64(nextT), float64(simWithReplay))
	if simWithReplay > 0 {
		out["trace.core_share"] = 1 - out["trace.load_share"] - out["trace.functional_share"]
	}

	// An operation's unattributed time is its root span's self time.
	spanSelf := selfTimes(spans)
	var wall, unattributed time.Duration
	for _, s := range spans {
		if s.Parent < 0 && s.Name == "op" {
			wall += s.dur()
			unattributed += spanSelf[s.ID]
		}
	}
	out["trace.unattributed"] = ratio(float64(unattributed), float64(wall))
	out["trace.coverage"] = 1 - out["trace.unattributed"]
	out["service.handler_ms"] = ratio(msOf(handlerT), float64(handled))
	out["service.client_overhead_ms"] = ratio(msOf(clientT), float64(handled))
	out["sample.smarts_ms"] = mean("sample.smarts")
	out["sample.ckpt_ms"] = mean("sample.ckpt")
	out["fingerprint.key_us"] = mean("fingerprint.key") * 1000
	out["diskstore.get_ms"] = mean("diskstore.get")
	out["diskstore.put_ms"] = mean("diskstore.put")

	// Simulated counts of the reference pass: exact, and the same in
	// every run of the same code.
	for _, r := range tm.ref {
		for _, n := range []string{"dcache_misses", "l2_misses", "br_mispredicts", "dram_row_hits", "dram_bank_conflicts", "dram_queue_waits"} {
			out[n] += float64(r.counters[n])
		}
		for c := events.Component(0); c < events.NumComponents; c++ {
			out["stack."+c.Name()+"_cycles"] += float64(r.stack[c])
		}
	}

	// The hit/miss split and the overhead come from the untraced half.
	var hits, misses []time.Duration
	for _, o := range plain.p.ops {
		switch {
		case o.served && o.hit:
			hits = append(hits, o.lat)
		case o.served:
			misses = append(misses, o.lat)
		}
	}
	if len(hits) > 0 {
		h := summarise(hits, serveHitTailP)
		out["service.hit_p50_ms"], out["service.hit_tail_ms"] = h.p50, h.tail
		fmt.Fprintf(log, "service.hit_tail_ms is %v\n", h)
	}
	if len(misses) > 0 {
		m := summarise(misses, serveMissTailP)
		out["service.miss_p50_ms"], out["service.miss_tail_ms"] = m.p50, m.tail
		fmt.Fprintf(log, "service.miss_tail_ms is %v\n", m)
	}
	out["trace.overhead_pct"] = tracingOverhead(plain.p.ops, tm.p.ops)
	drift := driftOf(append(slices.Clone(plain.p.calib), tm.p.calib...))
	drift.report(log)
	out["host.calib_ms"] = drift.medianMS
	out["host.calib_drift"] = math.Abs(drift.drift)
	out["host.wall_ops_per_s"] = ratio(float64(len(plain.p.ops)), plain.elapsed.Seconds())
	out["host.steal_pct"] = plain.steal
	inst.layers(p, out)
	attempted := len(plain.p.ops) + len(tm.p.ops)
	out["error_rate"] = ratio(float64(plain.failed()+tm.failed()), float64(attempted))
	return out
}

// tracingOverhead is how much longer, in percent, the traced phase's
// operations took than the untraced phase's, over the operations both
// phases reached. Both phases start from a fresh set-up on the same seed,
// so they run the same operations in the same order. An operation's
// latency holds the span bookkeeping inside it but not the replays,
// which run after it, so this is the cost of tracing to the operations
// themselves, not the traced phase's lower throughput.
func tracingOverhead(plain, traced []opResult) float64 {
	n := min(len(plain), len(traced))
	var a, b time.Duration
	for i := 0; i < n; i++ {
		a += plain[i].lat
		b += traced[i].lat
	}
	return 100 * ratio(float64(b-a), float64(a))
}

func printLayerReport(out io.Writer, workload string, l map[string]float64) {
	fmt.Fprintf(out, "%s trace coverage: %.1f%% of operation wall time in named layer spans, %.1f%% unattributed\n",
		workload, 100*l["trace.coverage"], 100*l["trace.unattributed"])
	fmt.Fprintf(out, "%s simulation time with replays: load %.1f%%, functional %.1f%%, timing core %.1f%%; tracing adds %.1f%% to operation latency\n",
		workload, 100*l["trace.load_share"], 100*l["trace.functional_share"], 100*l["trace.core_share"], l["trace.overhead_pct"])
	names := make([]string, 0, len(l))
	for n := range l {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %g\n", n, l[n])
	}
}
