package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/sample"
	"repro/internal/service"
)

// outcome is the part of a simulated result the oracle pins: the
// counts a CPI is made of, and a digest over everything else the
// simulation reports (CPI stack, event counters, sampling record).
type outcome struct {
	Insts  uint64 `json:"insts"`
	Cycles uint64 `json:"cycles"`
	Digest string `json:"digest"`
}

func (o outcome) cpi() float64 { return ratio(float64(o.Cycles), float64(o.Insts)) }

// simResult is one simulated result as the benchmark sees it.
type simResult struct {
	outcome
	counters map[string]uint64
	stack    events.Stack
	detailed uint64 // instructions the timing model simulated
	stream   uint64 // instructions the run advanced through
}

// expected.json holds the outcome of every operation a workload can
// run, keyed by opKey, recorded with -record.
//
//go:embed expected.json
var expectedJSON []byte

func loadOracle() (map[string]outcome, error) {
	var m map[string]outcome
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// opKey names one simulated result: a run of workload on backend with
// an instruction limit (0 = to completion), or a sampled run.
func opKey(kind, backend, workload string, limit uint64) string {
	return fmt.Sprintf("%s/%s/%s/%d", kind, backend, workload, limit)
}

func digestWriter(insts, cycles uint64, stack *events.Stack, counters map[string]uint64) hash.Hash {
	h := sha256.New()
	fmt.Fprintf(h, "insts=%d cycles=%d\n", insts, cycles)
	if stack == nil {
		fmt.Fprintln(h, "stack=none")
	} else {
		for c := events.Component(0); c < events.NumComponents; c++ {
			fmt.Fprintf(h, "stack.%s=%d\n", c.Name(), stack[c])
		}
	}
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s=%d\n", n, counters[n])
	}
	return h
}

func newSimResult(insts, cycles uint64, stack *events.Stack, counters map[string]uint64, h hash.Hash) simResult {
	r := simResult{
		outcome:  outcome{Insts: insts, Cycles: cycles, Digest: hex.EncodeToString(h.Sum(nil)[:8])},
		counters: counters,
		detailed: insts,
		stream:   insts,
	}
	if stack != nil {
		r.stack = *stack
	}
	return r
}

func fromRun(r core.RunResult) simResult {
	return newSimResult(r.Instructions, r.Cycles, r.Breakdown, r.Counters,
		digestWriter(r.Instructions, r.Cycles, r.Breakdown, r.Counters))
}

func fromResponse(r service.RunResponse) simResult {
	return newSimResult(r.Instructions, r.Cycles, r.Breakdown, r.Counters,
		digestWriter(r.Instructions, r.Cycles, r.Breakdown, r.Counters))
}

// fromSampled pins a sampled run: its measured-window totals, its
// sampling record and its CPI estimate. Insts and Cycles cover the
// measured windows, so cpi() is the sampled estimate.
func fromSampled(e sample.Result) simResult {
	raw := e.Raw
	h := digestWriter(raw.Instructions, raw.Cycles, raw.Breakdown, raw.Counters)
	fmt.Fprintf(h, "detailed=%d stream=%d intervals=%d cpi=%x\n",
		e.DetailedInstructions(), e.StreamInstructions(), e.Intervals, math.Float64bits(e.CPI.Mean))
	r := newSimResult(raw.Instructions, raw.Cycles, raw.Breakdown, raw.Counters, h)
	r.detailed, r.stream = e.DetailedInstructions(), e.StreamInstructions()
	return r
}

// writeOracle writes one entry per line, sorted by key, so a re-record
// diffs line by line.
func writeOracle(path string, m map[string]outcome) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		kb, _ := json.Marshal(k)
		vb, err := json.Marshal(m[k])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "%s: %s%s\n", kb, vb, sep)
	}
	b.WriteString("}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
