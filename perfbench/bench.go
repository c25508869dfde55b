package main

import (
	"context"
	"runtime"
	"time"

	"github.com/rtsyslab/eucon/internal/mpc"
)

// env is what one repetition of a workload needs.
type env struct {
	ctx  context.Context
	seed int64
	tr   *tracer // nil when untraced
}

// check is one correctness check of a repetition.
type check struct {
	name   string
	ok     bool
	detail string
}

// repResult is one repetition of a workload: its set-up, its run, and
// what the run produced.
type repResult struct {
	setup, run cost
	allocBytes uint64    // heap bytes allocated by the run
	runMallocs uint64    // heap objects allocated by the run
	periodsUS  []float64 // sample→rates latencies of the control loop
	digest     string    // simulator output digest; empty for lane-simple
	checks     []check
	// layer holds per-layer values only the workload can see (counters
	// read from the program's results and from the wrappers).
	layer       map[string]float64
	stepMallocs uint64 // heap objects allocated inside sampled controller steps
}

func (r *repResult) check(name string, ok bool, detail string) {
	r.checks = append(r.checks, check{name, ok, detail})
}

// addPeriods appends sample→rates latencies given in nanoseconds.
func (r *repResult) addPeriods(ns []int64) {
	for _, d := range ns {
		r.periodsUS = append(r.periodsUS, float64(d)/1e3)
	}
}

// addLayer copies the wrapper's controller counters into r under the
// given layer name.
func (s *stepper) addLayer(r *repResult, layer string) {
	if s.allocN > 0 {
		r.layer[layer+".allocs_per_step"] = float64(s.allocs) / float64(s.allocN)
	}
	if s.allocEvery == 1 {
		r.stepMallocs = s.allocs
	}
	if layer == "core" && s.outcome != nil {
		o := s.outcomes
		r.layer["core.outcome.ok"] = float64(o[mpc.SolveOK])
		r.layer["core.outcome.relaxed"] = float64(o[mpc.SolveRelaxed])
		r.layer["core.outcome.degraded"] = float64(o[mpc.SolveBestIterate] + o[mpc.SolveRegularized] + o[mpc.SolveHeld])
	}
}

// meter measures the time and heap allocation of a run.
type meter struct {
	start stamp
	rt    rtSnap
}

func startMeter() meter { return meter{rt: readRT(), start: stampNow()} }

// stop returns the elapsed time, bytes allocated, and objects allocated.
func (m meter) stop() (cost, uint64, uint64) {
	c := m.start.elapsed()
	rt := readRT()
	return c, rt.totalAlloc - m.rt.totalAlloc, rt.mallocs - m.rt.mallocs
}

// benchWorkload is one named workload of the benchmark.
type benchWorkload struct {
	name string
	rep  func(*env) (*repResult, error)
	// setup runs set-up alone, for extra set-up samples; nil when every
	// repetition already sets up often enough.
	setup func(*env) error
	// golden returns the digest expected at the default seed; nil when
	// the workload has no simulator digest.
	golden func() (string, error)
}

// Set-up is sampled at least minSetups times and for at least setupSpan
// of set-up work per run (at most maxSetups samples), and reported as the
// median.
const (
	minSetups = 5
	maxSetups = 2000
	setupSpan = 250 * time.Millisecond
	// gcBeforeSetup: a set-up slower than this is followed by a collection
	// before the next sample, as every repetition is.
	gcBeforeSetup = 10 * time.Millisecond
)

// measure starts repetitions until budget has passed (at least minSetups
// of them when set-up cannot run alone), then tops set-up samples up to
// the set-up rule. It also returns the peak RSS after the first minSetups
// repetitions (or all, if fewer), so a run that fits more repetitions in
// its budget does not report a higher peak for that alone.
func measure(w benchWorkload, e *env, budget time.Duration) ([]*repResult, []cost, float64, error) {
	var reps []*repResult
	var setups []cost
	var spent time.Duration
	rss := 0.0
	start := time.Now()
	for time.Since(start) < budget || (w.setup == nil && len(reps) < minSetups) {
		runtime.GC()
		r, err := w.rep(e)
		if err != nil {
			return nil, nil, 0, err
		}
		reps = append(reps, r)
		setups = append(setups, r.setup)
		spent += r.setup.wall
		if len(reps) <= minSetups {
			rss = maxRSSMB()
		}
	}
	last := reps[len(reps)-1].setup.wall
	for w.setup != nil && len(setups) < maxSetups && (len(setups) < minSetups || spent < setupSpan) {
		if last > gcBeforeSetup {
			runtime.GC() // as before a repetition: the last set-up left garbage worth collecting
		}
		t0 := stampNow()
		if err := w.setup(e); err != nil {
			return nil, nil, 0, err
		}
		c := t0.elapsed()
		setups = append(setups, c)
		last = c.wall
		spent += c.wall
	}
	return reps, setups, rss, nil
}
