// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks the program's outputs, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a traced
// repetition) by name with their units. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 10, "failed": 0, "metrics": {"run_cpu_s": {"value": 10.38, "unit": "s"}, ...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig5-medium --seed 1 --seconds 25 --trace 0
//
// It exits 1 when a check fails and 2 when the workload cannot run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/rtsyslab/eucon/internal/experiments"
)

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []benchWorkload{
	{
		name: "fig5-medium",
		rep:  fig5Rep,
		setup: func(e *env) error {
			_, _, err := fig5Setup(e)
			return err
		},
		golden: func() (string, error) { return goldenDigest(goldenSweep, fig5Golden) },
	},
	{
		name: "large1024-deucon",
		rep:  largeRep,
		setup: func(e *env) error {
			_, _, err := largeSetup(e)
			return err
		},
		golden: func() (string, error) { return goldenDigest(goldenLarge, large1024Golden) },
	},
	{
		name: "lane-simple",
		rep:  laneRep,
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", experiments.DefaultSeed, "input seed; golden digests are checked at the default seed")
	seconds := fs.Int("seconds", 25, "measurement time of the untraced repetitions, in seconds")
	traced := fs.Int("trace", 0, "1: also run one traced repetition and print per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds ≥ 1, -trace 0|1\n", workloadNames())
		return 2
	}
	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.tsv", w.name, *seed))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	res, err := bench(ctx, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, spans, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func lookup(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench measures w untraced for budget, checks its outputs, and, when
// traced, runs one more repetition under the tracer.
func bench(ctx context.Context, w benchWorkload, seed int64, budget time.Duration, traced bool, spansPath string, out io.Writer) (*result, error) {
	var want string
	if w.golden != nil {
		var err error
		if want, err = w.golden(); err != nil {
			return nil, err
		}
	}
	e := &env{ctx: ctx, seed: seed}
	reps, setups, rss, err := measure(w, e, budget)
	if err != nil {
		return nil, err
	}

	var checks []check
	for _, r := range reps {
		checks = append(checks, r.checks...)
	}
	digest := reps[0].digest
	if w.golden != nil {
		same := true
		for _, r := range reps[1:] {
			same = same && r.digest == digest
		}
		checks = append(checks, check{"repetitions give identical digests", same, fmt.Sprintf("%d repetitions", len(reps))})
		fmt.Fprintf(out, "digest %s seed=%d %s\n", w.name, seed, digest)
		if seed == experiments.DefaultSeed {
			checks = append(checks, goldenCheck(digest, want))
		}
	}

	e2e := endToEnd(reps, setups, rss)
	res := &result{Metrics: map[string]metric{}}
	if !traced {
		for _, d := range endToEndDefs {
			res.Metrics[d.name] = metric{e2e[d.name], d.unit}
		}
	} else {
		e.tr = newTracer()
		runtime.GC()
		rt0 := readRT()
		tr, err := w.rep(e)
		if err != nil {
			return nil, err
		}
		rt1 := readRT()
		checks = append(checks, tr.checks...)
		if w.golden != nil {
			checks = append(checks, check{"traced digest equals untraced digest", tr.digest == digest,
				fmt.Sprintf("traced %s, untraced %s", tr.digest, digest)})
		}
		spans := e.tr.snapshot()
		if err := writeSpans(spansPath, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(spans), spansPath)
		layer := perLayer(tr, newSpanSet(spans), rt0, rt1, e2e["run_s"])
		for _, d := range perLayerDefs {
			res.Metrics[d.name] = metric{layer[d.name], d.unit}
		}
	}

	res.Attempted, res.Failed = len(checks), printChecks(out, checks)
	res.Correct = res.Failed == 0
	e2e["failed_ratio"] = float64(res.Failed) / float64(res.Attempted)

	fmt.Fprintf(out, "workload %s seed=%d repetitions=%d setups=%d\n", w.name, seed, len(reps), len(setups))
	fmt.Fprint(out, "repetition run_s / run_cpu_s:")
	for _, r := range reps {
		fmt.Fprintf(out, " %.4f/%.4f", r.run.wall.Seconds(), r.run.cpu.Seconds())
	}
	fmt.Fprintln(out)
	printMetrics(out, endToEndDefs, e2e)
	printMetrics(out, reportedDefs, e2e)
	fmt.Fprintf(out, "%-26s %14.6g %-12s %s\n", "failed_ratio", e2e["failed_ratio"], "ratio", "failed checks / attempted checks")
	fmt.Fprintf(out, "%-26s %14d %-12s %s\n", "period_samples", int(e2e["period_samples"]), "count", "latency samples behind period_p50_us and period_p99_us")
	if q := e2e["period_tail_q"]; q < 0.99 {
		fmt.Fprintf(out, "note: %d samples leave fewer than %d beyond p99, so period_p99_us reports p%g\n",
			int(e2e["period_samples"]), minTail, 100*q)
	}
	if traced {
		vals := make(map[string]float64, len(res.Metrics))
		for k, m := range res.Metrics {
			vals[k] = m.Value
		}
		printMetrics(out, perLayerDefs, vals)
	}
	return res, nil
}

// printChecks prints one line per distinct check — how often it passed,
// with the detail of its first failure (or its last pass) — and returns
// how many checks failed.
func printChecks(out io.Writer, checks []check) int {
	type tally struct {
		passed, total int
		detail        string
		failed        bool
	}
	var order []string
	byName := map[string]*tally{}
	failed := 0
	for _, c := range checks {
		t, ok := byName[c.name]
		if !ok {
			t = &tally{}
			byName[c.name] = t
			order = append(order, c.name)
		}
		t.total++
		switch {
		case c.ok:
			t.passed++
			if !t.failed {
				t.detail = c.detail
			}
		case !t.failed:
			t.failed, t.detail = true, c.detail
		}
		if !c.ok {
			failed++
		}
	}
	for _, name := range order {
		t := byName[name]
		status := "ok  "
		if t.failed {
			status = "FAIL"
		}
		fmt.Fprintf(out, "check %s %s: %d/%d passed (%s)\n", status, name, t.passed, t.total, t.detail)
	}
	return failed
}

func printMetrics(out io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(out, "%-26s %14.6g %-12s %s\n", d.name, vals[d.name], d.unit, d.note)
	}
}
