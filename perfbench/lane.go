package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"github.com/rtsyslab/eucon/internal/agent"
	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/workload"
)

// Lane workload shape: one server, one in-process agent per SIMPLE
// processor, lockstep over loopback TCP.
const (
	lanePeriods = 20000 // periods the server steps per repetition
	laneWarmup  = 500   // leading periods left out of the latency samples
	laneTail    = 2000  // trailing periods whose mean utilization is checked
	laneTimeout = 2 * time.Minute
	// laneBound is the paper's acceptability bound on the mean
	// utilization's distance from its set point.
	laneBound = 0.02
)

// latencySink collects each agent's report→rates latencies and the moment
// every agent has completed its first period.
type latencySink struct {
	mu       sync.Mutex
	joined   int
	setupEnd stamp       // when the last agent completed its first period
	first    []bool      // per agent, written only by that agent's goroutine
	samples  [][]float64 // per agent, written only by that agent's goroutine
}

func newLatencySink(agents int) *latencySink {
	s := &latencySink{first: make([]bool, agents), samples: make([][]float64, agents)}
	for i := range s.samples {
		s.samples[i] = make([]float64, 0, lanePeriods)
	}
	return s
}

// sink returns agent p's agent.WithLatencySink callback.
func (s *latencySink) sink(p int) func(period int, rtt time.Duration) {
	return func(period int, rtt time.Duration) {
		if !s.first[p] {
			s.first[p] = true
			s.mu.Lock()
			s.joined++
			if s.joined == len(s.first) {
				s.setupEnd = stampNow()
			}
			s.mu.Unlock()
		}
		if period >= laneWarmup {
			s.samples[p] = append(s.samples[p], float64(rtt)/1e3)
		}
	}
}

// laneRep serves SIMPLE under centralized EUCON to two node agents in
// lockstep for lanePeriods periods. Set-up covers building the system and
// controller, listening, and both agents joining, up to the first period
// both took part in; the run ends when the server returns.
func laneRep(e *env) (*repResult, error) {
	r := &repResult{layer: map[string]float64{}}
	ctx, cancel := context.WithTimeout(e.ctx, laneTimeout)
	defer cancel()
	m := startMeter()
	lat := newLatencySink(2)
	t0 := stampNow()

	sp := e.tr.begin("workload.build", noSpan, noSpan)
	sys := workload.Simple()
	e.tr.end(sp)
	sp = e.tr.begin("core.new", noSpan, noSpan)
	ctrl, err := core.New(sys, nil, workload.SimpleController())
	e.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("lane-simple: core.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("lane-simple: listen: %w", err)
	}
	addr := ln.Addr().String()

	probe := &laneProbe{tr: e.tr}
	st := newStepper(ctrl, "core.step", e.tr)
	srvOpts := []agent.Option{agent.WithPeriods(lanePeriods)}
	var agentOpts []agent.Option
	if e.tr != nil {
		st.cur = &probe.cur
		st.allocEvery = 64
		ln = probe.listener(ln)
		codec := agent.WithCodec(&timedCodec{inner: lane.Binary, probe: probe})
		srvOpts = append(srvOpts, codec)
		agentOpts = append(agentOpts, codec)
	}
	sp = e.tr.begin("agent.NewServer", noSpan, noSpan)
	srv, err := agent.NewServer(sys, st.controller(), ln, srvOpts...)
	e.tr.end(sp)
	if err != nil {
		_ = ln.Close()
		return nil, fmt.Errorf("lane-simple: agent.NewServer: %w", err)
	}
	root := e.tr.begin("agent.Server.Run", noSpan, noSpan)
	probe.parent = root
	st.beginRun(root, lanePeriods, lanePeriods-laneTail, sys.Processors)

	var (
		wg       sync.WaitGroup
		res      *agent.ServerResult
		srvErr   error
		srvDone  stamp
		agentErr = make([]error, sys.Processors)
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, srvErr = srv.Run(ctx)
		srvDone = stampNow()
		e.tr.end(root)
		cancel() // a server that failed early must not leave agents waiting
	}()
	for p := 0; p < sys.Processors; p++ {
		opts := append([]agent.Option{
			agent.WithSeed(e.seed + int64(p)),
			agent.WithLatencySink(lat.sink(p)),
		}, agentOpts...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := e.tr.begin("agent.RunAgent", int(root), noSpan)
			agentErr[p] = agent.RunAgent(ctx, sys, p, addr, opts...)
			e.tr.end(sp)
		}()
	}
	wg.Wait()
	_, total, _ := m.stop()
	if srvErr != nil {
		return nil, fmt.Errorf("lane-simple: server: %w", srvErr)
	}
	if err := errors.Join(agentErr...); err != nil {
		return nil, fmt.Errorf("lane-simple: agent: %w", err)
	}

	joined := lat.joined == sys.Processors
	r.setup, r.run = t0.until(lat.setupEnd), lat.setupEnd.until(srvDone)
	r.allocBytes = total
	for _, s := range lat.samples {
		r.periodsUS = append(r.periodsUS, s...)
	}

	r.check("every agent took part in a stepped period", joined, fmt.Sprintf("%d of %d", lat.joined, sys.Processors))
	r.check("server stepped every period", res.Periods == lanePeriods, fmt.Sprintf("%d periods", res.Periods))
	ledger := res.Joins == sys.Processors && res.Rejoins == 0 && res.Crashes == 0 && res.LiveAtEnd == sys.Processors &&
		res.Joins+res.Rejoins == res.Leaves+res.Crashes+res.LiveAtEnd
	r.check("membership ledger balanced", ledger, fmt.Sprintf("joins=%d rejoins=%d leaves=%d crashes=%d live=%d",
		res.Joins, res.Rejoins, res.Leaves, res.Crashes, res.LiveAtEnd))
	r.check("no controller errors", res.ControllerErrors == 0, fmt.Sprintf("%d errors", res.ControllerErrors))
	r.check("no missed reports", res.MissedReports == 0, fmt.Sprintf("%d missed", res.MissedReports))
	b := ctrl.SetPoints()
	for p, u := range st.tailMeans() {
		d := math.Abs(u - b[p])
		r.check(fmt.Sprintf("P%d tail mean utilization within %.2f of set point", p+1, laneBound),
			d <= laneBound, fmt.Sprintf("mean %.4f, set point %.4f", u, b[p]))
	}

	st.addLayer(r, "core")
	r.layer["agent.periods"] = float64(res.Periods)
	r.layer["agent.missed_reports"] = float64(res.MissedReports)
	r.layer["agent.stale_samples"] = float64(res.StaleSamples)
	r.layer["agent.frames_in"] = float64(res.FramesIn)
	r.layer["agent.frames_out"] = float64(res.FramesOut)
	r.layer["lane.write_calls"] = float64(probe.writeCalls.Load())
	r.layer["lane.read_calls"] = float64(probe.readCalls.Load())
	r.layer["lane.bytes_out"] = float64(probe.bytesOut.Load())
	r.layer["lane.bytes_in"] = float64(probe.bytesIn.Load())
	if res.FramesOut > 0 {
		r.layer["lane.writes_per_frame"] = float64(probe.writeCalls.Load()) / float64(res.FramesOut)
		r.layer["lane.bytes_per_frame"] = float64(probe.bytesOut.Load()) / float64(res.FramesOut)
	}
	if n := probe.encodeCalls.Load(); n > 0 {
		r.layer["lane.encode_ns"] = float64(probe.encodeNS.Load()) / float64(n)
	}
	return r, nil
}
