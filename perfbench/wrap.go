package main

import (
	"net"
	"runtime"
	"sync/atomic"

	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/mpc"
	"github.com/rtsyslab/eucon/internal/sim"
)

// stepper observes a sim.Controller from outside: it forwards every call
// unchanged and, around each Step, accumulates the tail of the measured
// utilization, times the step when asked (the sample→rates latency of the
// control loop), and — when traced — records a span, the solver outcome,
// and the step's heap allocations.
type stepper struct {
	inner sim.Controller
	span  string // span name of one step, e.g. "core.step"
	// timeSteps records each untraced step's thread CPU time in stepsNS;
	// set it only when the stepping goroutine is locked to its OS thread.
	timeSteps bool

	// Per-run state, set by beginRun.
	parent   int32
	tailFrom int

	// stepsNS collects the thread CPU time of every Step of one run.
	stepsNS []int64
	// tailSum/tailN accumulate u over periods k ≥ tailFrom.
	tailSum []float64
	tailN   int

	// Traced-only state.
	tr         *tracer
	cur        *atomic.Int32 // mirrors the period being controlled, for other wrappers' spans
	allocEvery int           // sample heap allocations on every allocEvery-th step; 0 = never
	allocN     int           // sampled steps
	allocs     uint64        // mallocs inside sampled steps
	outcomes   [mpc.SolveExplicitMiss + 1]int
	outcome    interface{ LastOutcome() mpc.SolveOutcome }
	ms         runtime.MemStats
}

func newStepper(inner sim.Controller, span string, tr *tracer) *stepper {
	s := &stepper{inner: inner, span: span, tr: tr}
	s.outcome, _ = inner.(interface{ LastOutcome() mpc.SolveOutcome })
	return s
}

// beginRun starts a new run of up to periods steps: step times restart,
// step spans get the given parent, and u is summed from period tailFrom
// on.
func (s *stepper) beginRun(parent int32, periods, tailFrom, processors int) {
	s.parent, s.tailFrom = parent, tailFrom
	if cap(s.stepsNS) < periods {
		s.stepsNS = make([]int64, 0, periods)
	}
	s.stepsNS = s.stepsNS[:0]
	if len(s.tailSum) != processors {
		s.tailSum = make([]float64, processors)
	}
	for i := range s.tailSum {
		s.tailSum[i] = 0
	}
	s.tailN = 0
}

// controller returns s as a sim.Controller that also implements exactly
// the optional reporter interfaces the inner controller implements, so the
// simulator sees the same capabilities through the wrapper.
func (s *stepper) controller() sim.Controller {
	d, isD := s.inner.(sim.DegradationReporter)
	c, isC := s.inner.(sim.ContainmentReporter)
	switch {
	case isD && isC:
		return struct {
			*stepper
			sim.DegradationReporter
			sim.ContainmentReporter
		}{s, d, c}
	case isD:
		return struct {
			*stepper
			sim.DegradationReporter
		}{s, d}
	case isC:
		return struct {
			*stepper
			sim.ContainmentReporter
		}{s, c}
	default:
		return s
	}
}

// Name implements sim.Controller.
func (s *stepper) Name() string { return s.inner.Name() }

// Reset implements sim.Controller.
func (s *stepper) Reset() { s.inner.Reset() }

// SetPoints implements sim.Controller.
func (s *stepper) SetPoints() []float64 { return s.inner.SetPoints() }

// Step implements sim.Controller.
func (s *stepper) Step(k int, u, rates []float64) ([]float64, error) {
	if k >= s.tailFrom && len(u) == len(s.tailSum) {
		for i, v := range u {
			s.tailSum[i] += v
		}
		s.tailN++
	}
	if s.tr == nil {
		if !s.timeSteps {
			return s.inner.Step(k, u, rates)
		}
		start := threadCPU()
		out, err := s.inner.Step(k, u, rates)
		s.stepsNS = append(s.stepsNS, int64(threadCPU()-start))
		return out, err
	}

	if s.cur != nil {
		s.cur.Store(int32(k))
	}
	sampled := s.allocEvery > 0 && k%s.allocEvery == 0
	var before uint64
	if sampled {
		t0 := s.tr.now()
		runtime.ReadMemStats(&s.ms)
		before = s.ms.Mallocs
		s.tr.record("trace.memstats", int(s.parent), k, t0, s.tr.now())
	}
	start := s.tr.now()
	out, err := s.inner.Step(k, u, rates)
	end := s.tr.now()
	s.tr.record(s.span, int(s.parent), k, start, end)
	if sampled {
		runtime.ReadMemStats(&s.ms)
		s.allocs += s.ms.Mallocs - before
		s.allocN++
		s.tr.record("trace.memstats", int(s.parent), k, end, s.tr.now())
	}
	if s.outcome != nil {
		s.outcomes[s.outcome.LastOutcome()]++
	}
	return out, err
}

// tailMeans returns the mean utilization per processor over the tail.
func (s *stepper) tailMeans() []float64 {
	out := make([]float64, len(s.tailSum))
	for i, v := range s.tailSum {
		if s.tailN > 0 {
			out[i] = v / float64(s.tailN)
		}
	}
	return out
}

// laneProbe counts and times the server side of the transport from
// outside: the net.Conns its listener hands to agent.NewServer, and the
// encode calls of the codec handed to the server and the agents. Spans
// are children of the server run span and carry the period the
// controller was last stepping.
type laneProbe struct {
	tr     *tracer
	parent int32
	cur    atomic.Int32

	writeCalls, readCalls atomic.Int64
	bytesOut, bytesIn     atomic.Int64
	encodeCalls, encodeNS atomic.Int64
}

// listener wraps ln so every accepted connection is counted.
func (p *laneProbe) listener(ln net.Listener) net.Listener {
	return &countingListener{Listener: ln, probe: p}
}

type countingListener struct {
	net.Listener
	probe *laneProbe
}

// Accept implements net.Listener.
func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, probe: l.probe}, nil
}

// countingConn counts calls and bytes and records a span per call. A read
// span includes the time the reader waited for the peer.
type countingConn struct {
	net.Conn
	probe *laneProbe
}

// Read implements net.Conn.
func (c *countingConn) Read(b []byte) (int, error) {
	p := c.probe
	start := p.tr.now()
	n, err := c.Conn.Read(b)
	p.tr.record("net.read", int(p.parent), int(p.cur.Load()), start, p.tr.now())
	p.readCalls.Add(1)
	p.bytesIn.Add(int64(n))
	return n, err
}

// Write implements net.Conn.
func (c *countingConn) Write(b []byte) (int, error) {
	p := c.probe
	start := p.tr.now()
	n, err := c.Conn.Write(b)
	p.tr.record("net.write", int(p.parent), int(p.cur.Load()), start, p.tr.now())
	p.writeCalls.Add(1)
	p.bytesOut.Add(int64(n))
	return n, err
}

// timedCodec times AppendEncode of an inner codec; its frames are the
// inner codec's, byte for byte.
type timedCodec struct {
	inner lane.Codec
	probe *laneProbe
}

// Name implements lane.Codec.
func (c *timedCodec) Name() string { return c.inner.Name() }

// AppendEncode implements lane.Codec. The result aliases dst exactly as
// the inner codec's does.
func (c *timedCodec) AppendEncode(dst []byte, m *lane.Message) ([]byte, error) {
	p := c.probe
	start := p.tr.now()
	out, err := c.inner.AppendEncode(dst, m)
	end := p.tr.now()
	p.tr.record("lane.encode", int(p.parent), int(p.cur.Load()), start, end)
	p.encodeCalls.Add(1)
	p.encodeNS.Add(end - start)
	return out, err
}

// Decode implements lane.Codec.
func (c *timedCodec) Decode(body []byte, m *lane.Message) error { return c.inner.Decode(body, m) }
