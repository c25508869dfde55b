package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"

	"github.com/rtsyslab/eucon/internal/baseline"
	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/experiments"
	"github.com/rtsyslab/eucon/internal/metrics"
	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// largePeriods is the LARGE-1024 run length, that of the workers=1 golden.
const largePeriods = 120

// fig5Setup builds MEDIUM and its centralized EUCON controller.
func fig5Setup(e *env) (*task.System, *core.Controller, error) {
	sp := e.tr.begin("workload.build", noSpan, noSpan)
	sys := workload.Medium()
	e.tr.end(sp)
	sp = e.tr.begin("core.new", noSpan, noSpan)
	ctrl, err := core.New(sys, nil, workload.MediumController())
	e.tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("fig5-medium: core.New: %w", err)
	}
	return sys, ctrl, nil
}

// fig5Rep runs the Figure 5 sweep serially. experiments.Sweep builds its
// controller internally, so the benchmark runs the same jobs the way a
// serial Sweep worker does — one controller, Reset between points, one
// experiments.Run per execution-time factor — with the controller wrapped
// from outside, and rebuilds the sweep points from the traces exactly as
// Sweep does. The digest proves the series is Sweep's.
func fig5Rep(e *env) (*repResult, error) {
	r := &repResult{layer: map[string]float64{}}
	// One goroutine runs the simulator and the controller; locking it to
	// its thread lets the steps be timed in thread CPU time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := stampNow()
	sys, ctrl, err := fig5Setup(e)
	if err != nil {
		return nil, err
	}
	r.setup = t0.elapsed()

	st := newStepper(ctrl, "core.step", e.tr)
	st.timeSteps = true
	if e.tr != nil {
		st.allocEvery = 1
	}
	wrapped := st.controller()
	etfs := experiments.Fig5ETFs()
	m := startMeter()
	root := e.tr.begin("sweep", noSpan, noSpan)
	open, err := baseline.NewOpen(sys, nil)
	if err != nil {
		return nil, fmt.Errorf("fig5-medium: baseline.NewOpen: %w", err)
	}
	b := sys.DefaultSetPoints()[0]
	pts := make([]experiments.SweepPoint, 0, len(etfs))
	var jobs, ctrlErrs, nonFinite int
	for i, etf := range etfs {
		if i > 0 {
			wrapped.Reset()
		}
		sp := e.tr.begin("experiments.Run", int(root), noSpan)
		st.beginRun(sp, experiments.DefaultPeriods, experiments.DefaultPeriods, sys.Processors)
		tr, err := experiments.Run(e.ctx, experiments.Spec{
			Workload: experiments.WorkloadMedium,
			Custom:   wrapped,
			ETF:      sim.ConstantETF(etf),
			Seed:     e.seed,
		})
		e.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("fig5-medium etf=%g: %w", etf, err)
		}
		r.addPeriods(st.stepsNS)
		window := metrics.Window(metrics.Column(tr.Utilization, 0), experiments.WindowStart, experiments.WindowEnd)
		sum := metrics.Summarize(window)
		if math.IsNaN(sum.Mean) || math.IsInf(sum.Mean, 0) {
			nonFinite++
		}
		pts = append(pts, experiments.SweepPoint{
			ETF:          etf,
			P1:           sum,
			SetPoint:     b,
			Acceptable:   sum.Acceptable(b),
			OpenExpected: open.ExpectedUtilization(sys, etf)[0],
		})
		jobs += completedJobs(tr)
		ctrlErrs += tr.Stats.ControllerErrors
	}
	e.tr.end(root)
	r.run, r.allocBytes, r.runMallocs = m.stop()
	r.digest = sweepDigest(pts)

	r.check("sweep has one point per etf", len(pts) == len(etfs), fmt.Sprintf("%d points", len(pts)))
	r.check("no controller errors", ctrlErrs == 0, fmt.Sprintf("%d errors", ctrlErrs))
	r.check("every point's mean utilization is finite", nonFinite == 0, fmt.Sprintf("%d non-finite", nonFinite))

	r.layer["sim.jobs"] = float64(jobs)
	st.addLayer(r, "core")
	return r, nil
}

// sweepDigest hashes a sweep series exactly as euconsim -sweep-digest does.
func sweepDigest(pts []experiments.SweepPoint) string {
	h := fnv.New64a()
	for _, p := range pts {
		fmt.Fprintf(h, "%.17g %.17g %.17g %.17g %v %.17g\n",
			p.ETF, p.P1.Mean, p.P1.StdDev, p.SetPoint, p.Acceptable, p.OpenExpected)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// largeSetup builds LARGE-1024 and its serial localized DEUCON controller.
func largeSetup(e *env) (*task.System, *deucon.Controller, error) {
	sp := e.tr.begin("workload.build", noSpan, noSpan)
	sys := workload.Large1024()
	e.tr.end(sp)
	sp = e.tr.begin("deucon.new", noSpan, noSpan)
	ctrl, err := deucon.New(sys, nil, deucon.Config{Parallelism: 1})
	e.tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("large1024-deucon: deucon.New: %w", err)
	}
	return sys, ctrl, nil
}

// largeRep runs LARGE-1024 under DEUCON for largePeriods periods at
// etf = 1, the configuration of the workers=1 golden.
func largeRep(e *env) (*repResult, error) {
	r := &repResult{layer: map[string]float64{}}
	// One goroutine runs the simulator and the controller; locking it to
	// its thread lets the steps be timed in thread CPU time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := stampNow()
	sys, ctrl, err := largeSetup(e)
	if err != nil {
		return nil, err
	}
	r.setup = t0.elapsed()

	st := newStepper(ctrl, "deucon.step", e.tr)
	st.timeSteps = true
	if e.tr != nil {
		st.allocEvery = 1
	}
	m := startMeter()
	sp := e.tr.begin("experiments.Run", noSpan, noSpan)
	st.beginRun(sp, largePeriods, largePeriods, sys.Processors)
	tr, err := experiments.Run(e.ctx, experiments.Spec{
		System:  sys,
		Custom:  st.controller(),
		ETF:     sim.ConstantETF(1),
		Periods: largePeriods,
		Seed:    e.seed,
	})
	e.tr.end(sp)
	r.run, r.allocBytes, r.runMallocs = m.stop()
	if err != nil {
		return nil, fmt.Errorf("large1024-deucon: %w", err)
	}
	r.addPeriods(st.stepsNS)
	r.digest = traceDigest(tr)

	r.check("run has every period", len(tr.Utilization) == largePeriods, fmt.Sprintf("%d periods", len(tr.Utilization)))
	r.check("no controller errors", tr.Stats.ControllerErrors == 0, fmt.Sprintf("%d errors", tr.Stats.ControllerErrors))

	r.layer["sim.jobs"] = float64(completedJobs(tr))
	st.addLayer(r, "deucon")
	oc := ctrl.OutcomeCounts()
	r.layer["deucon.local.ok"] = float64(oc[mpc.SolveOK])
	r.layer["deucon.local.relaxed"] = float64(oc[mpc.SolveRelaxed])
	r.layer["deucon.messages"] = float64(ctrl.Messages())
	return r, nil
}

// traceDigest hashes a run's utilization and rate trajectories exactly as
// euconsim's LARGE digests do.
func traceDigest(tr *sim.Trace) string {
	h := fnv.New64a()
	for k := range tr.Utilization {
		for _, u := range tr.Utilization[k] {
			fmt.Fprintf(h, "%.17g ", u)
		}
		for _, r := range tr.Rates[k] {
			fmt.Fprintf(h, "%.17g ", r)
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// completedJobs is the number of subtask jobs the simulator completed.
func completedJobs(tr *sim.Trace) int {
	n := 0
	for _, p := range tr.Periods {
		n += p.Completed
	}
	return n
}
