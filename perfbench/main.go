// Command perfbench is the repository benchmark: it runs one named
// workload through the BCL stack's public entry points, checks every
// output, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones listed in
// BENCHMARK.json; with -trace 1 they are the per-layer ones, measured
// from a CPU profile, a heap profile and spans recorded around every
// operation the benchmark calls in the stack.
//
// Build and run it from the root of a checkout with
//
//	bash perfbench/run.sh --workload pingpong-8b --seed 1 --seconds 10 --trace 0
//
// A run repeats one fixed virtual scenario (a "rep") until the time
// budget is spent and reports medians over the reps. Every rep of a
// run uses the same seed, so every rep must print the same virtual
// results: the run fails if their determinism digests differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// A check failure is an output the stack got wrong. It names the
// check, fails the run and exits non-zero without a result line.
type checkError struct{ name, detail string }

func (e *checkError) Error() string { return "check " + e.name + " failed: " + e.detail }

func failCheck(name, format string, args ...any) error {
	return &checkError{name: name, detail: fmt.Sprintf(format, args...)}
}

// spansDir is where a traced run writes its spans, under the build
// output directory of the checkout.
const spansDir = ".bench_build/spans"

// minReps is the fewest reps a run makes whatever its time budget, so
// every median has at least three values under it.
const minReps = 3

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()
	if flag.NArg() != 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *traced))
	}
	w := lookupWorkload(*workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in its own process, so no workload's peak
// memory leaks into another's, and passes each one's output through.
func runAll(seed uint64, seconds float64, traced int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s ==\n", w.name)
		if err := runChild(self, w.name, seed, seconds, traced); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures one workload for the time budget and returns the result
// line. A check failure or a determinism mismatch is an error.
func run(w *workload, seed uint64, budget time.Duration, traced bool, out io.Writer) (*result, error) {
	printHost(out)
	in := w.inputs(seed)
	fmt.Fprintf(out, "workload %s seed %d: %s\n", w.name, seed, w.why)

	// An untraced run spends the whole budget on untraced reps. A traced
	// run spends half on untraced reps (the overhead baseline) and half
	// on traced ones.
	plain := budget
	if traced {
		plain = budget / 2
	}
	reps, err := repeat(w, in, plain, nil)
	if err != nil {
		return nil, err
	}
	var treps []*repResult
	var tr *tracing
	if traced {
		tr = newTracing()
		if treps, err = repeat(w, in, budget-plain, tr); err != nil {
			return nil, err
		}
		if tr.err != nil {
			return nil, tr.err
		}
		if err := checkSameDigest(reps[0], treps); err != nil {
			return nil, err
		}
	}

	first := reps[0]
	e2e := endToEnd(reps)
	fmt.Fprintf(out, "reps %d (untraced), %d (traced); %d ops per rep; %d latency samples per rep\n",
		len(reps), len(treps), first.ops, len(first.lat))
	printMetrics(out, "end-to-end", e2e)
	printMetrics(out, "virtual (exact for a seed)", first.virtual())
	fmt.Fprintf(out, "digest %016x\n", first.digest)

	res := &result{Correct: true, Attempted: first.attempted, Failed: first.failed, Metrics: e2e}
	if traced {
		layers := perLayer(first, reps, treps, tr)
		printMetrics(out, "per-layer", layers)
		path, err := tr.spans.write(spansDir, w.name, seed)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans of the last traced rep: %s\n", path)
		res.Metrics = layers
	}
	return res, nil
}

// repeat runs reps until the budget is spent (and at least minReps),
// checking that every rep reproduces the first one's virtual results.
func repeat(w *workload, in any, budget time.Duration, tr *tracing) ([]*repResult, error) {
	var reps []*repResult
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		// Start every rep from a collected heap, so one rep's garbage
		// is not charged to the next, and measure its own peak RSS.
		resetPeakRSS()
		rc := newRep(tr)
		r, err := w.run(in, rc)
		if err != nil {
			return nil, err
		}
		rc.finish(r)
		r.peakRSS = peakRSSMB()
		if err := checkSameDigest(r, reps); err != nil {
			return nil, err
		}
		if len(reps) > 0 {
			// Identical to the first rep's; holding them would grow the
			// heap, and so the peak RSS, with the number of reps.
			r.lat, r.counters = nil, nil
		}
		reps = append(reps, r)
	}
	return reps, nil
}

func checkSameDigest(want *repResult, reps []*repResult) error {
	for i, r := range reps {
		if r.digest != want.digest {
			return failCheck("determinism", "rep %d digest %016x, rep 0 digest %016x", i, r.digest, want.digest)
		}
	}
	return nil
}

// endToEnd is the -trace 0 metric set: medians over the reps of the
// host costs, and the virtual rates, which every rep repeats exactly.
func endToEnd(reps []*repResult) map[string]metric {
	v := reps[0]
	return map[string]metric{
		"setup_s":      {median(reps, func(r *repResult) float64 { return r.setup.Seconds() }), "s"},
		"wall_s":       {median(reps, func(r *repResult) float64 { return r.wall.Seconds() }), "s"},
		"alloc_mb":     {median(reps, func(r *repResult) float64 { return float64(r.allocBytes) / 1e6 }), "MB"},
		"peak_rss_mb":  {median(reps, func(r *repResult) float64 { return r.peakRSS }), "MB"},
		"ops_per_s":    {v.opsPerSec(), "1/s"},
		"goodput_mbps": {v.goodputMBps(), "MB/s"},
	}
}

func median(reps []*repResult, f func(*repResult) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func printMetrics(out io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s:\n", title)
	for _, k := range names {
		fmt.Fprintf(out, "  %-24s %16.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
