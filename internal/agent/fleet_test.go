package agent

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/fault"
	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/task"
	"github.com/rtsyslab/eucon/internal/workload"
)

// joinGate wraps a Server's listener so that no lane writes its first
// frame (the join ack) until n lanes are ready to. No agent can report
// before every agent's join was handled, so a lockstep server steps its
// first period with the full fleet instead of racing the later hellos.
type joinGate struct {
	net.Listener
	n    int
	mu   sync.Mutex
	seen int
	open chan struct{}
}

func newJoinGate(ln net.Listener, n int) *joinGate {
	return &joinGate{Listener: ln, n: n, open: make(chan struct{})}
}

// Accept implements net.Listener.
func (g *joinGate) Accept() (net.Conn, error) {
	c, err := g.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, g: g}, nil
}

// gatedConn holds its first Write until the gate opens. The wait is
// bounded so a broken fleet fails the test's assertions instead of
// hanging it.
type gatedConn struct {
	net.Conn
	g     *joinGate
	first sync.Once
}

// Write implements net.Conn.
func (c *gatedConn) Write(b []byte) (int, error) {
	c.first.Do(func() {
		c.g.mu.Lock()
		c.g.seen++
		if c.g.seen == c.g.n {
			close(c.g.open)
		}
		c.g.mu.Unlock()
		select {
		case <-c.g.open:
		case <-time.After(5 * time.Second):
		}
	})
	return c.Conn.Write(b)
}

// runFleet serves ctrl to one lockstep RunAgent per processor for the
// given number of periods, with the trace on, and returns the server's
// result after checking that every agent joined once and none crashed.
// agentOpts gives each processor's agent options.
func runFleet(t *testing.T, sys *task.System, ctrl sim.Controller, periods int, srvOpts []Option, agentOpts func(p int) []Option) *ServerResult {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv, err := NewServer(sys, ctrl, newJoinGate(ln, sys.Processors),
		append([]Option{WithPeriods(periods), WithTrace(true)}, srvOpts...)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for p := 0; p < sys.Processors; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunAgent(ctx, sys, p, addr, agentOpts(p)...); err != nil {
				t.Errorf("agent P%d: %v", p+1, err)
			}
		}()
	}
	res, err := srv.Run(ctx)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Periods != periods || res.Joins != sys.Processors || res.Crashes != 0 {
		t.Fatalf("run record: periods=%d joins=%d crashes=%d, want %d/%d/0",
			res.Periods, res.Joins, res.Crashes, periods, sys.Processors)
	}
	return res
}

// tailMean is processor p's mean utilization over periods [from, len).
func tailMean(res *ServerResult, p, from int) float64 {
	var sum float64
	for _, row := range res.Utilization[from:] {
		sum += row[p]
	}
	return sum / float64(len(res.Utilization)-from)
}

// TestServerMediumWithJitter runs MEDIUM's four agents with the paper's
// execution-time jitter: the centralized MPC must still hold every
// processor's tail mean at its set point over real lanes.
func TestServerMediumWithJitter(t *testing.T) {
	sys := workload.Medium()
	ctrl, err := core.New(sys, nil, workload.MediumController())
	if err != nil {
		t.Fatal(err)
	}
	res := runFleet(t, sys, ctrl, 60, nil, func(p int) []Option {
		return []Option{WithETF(sim.ConstantETF(1)), WithSamplingPeriod(workload.SamplingPeriod),
			WithJitter(workload.MediumJitter), WithSeed(int64(p + 1))}
	})
	b := sys.DefaultSetPoints()
	for p := range b {
		if mean := tailMean(res, p, 30); math.Abs(mean-b[p]) > 0.03 {
			t.Errorf("P%d tail mean = %v, want ≈ %v", p+1, mean, b[p])
		}
	}
}

// dropRange drops every message index in [from, to), defeating retries
// when the range covers all attempts of one report.
type dropRange struct{ from, to uint64 }

func (d dropRange) Outcome(n uint64) (bool, time.Duration) { return n >= d.from && n < d.to, 0 }

// TestServerDegradesAroundLostReport is the end-to-end degradation path:
// one agent's period-2 report is dropped beyond its retry budget, the
// server steps that period on the agent's hold-last substitute after the
// period timeout, and the loop carries on with finite rates.
func TestServerDegradesAroundLostReport(t *testing.T) {
	sys := workload.Simple()
	retry := lane.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	// Agent P2's report for period 2 occupies report indices 2, 3, 4
	// (initial send plus two retries); dropping all three loses it for
	// good. P1 runs fault-free.
	plans := []lane.Plan{nil, dropRange{2, 5}}
	res := runFleet(t, sys, simpleController(t, sys), 6, []Option{WithPeriodTimeout(time.Second)},
		func(p int) []Option {
			return []Option{WithETF(sim.ConstantETF(0.5)), WithSamplingPeriod(workload.SamplingPeriod),
				WithSendFaults(plans[p]), WithRetry(retry)}
		})
	if res.MissedReports != 1 {
		t.Errorf("MissedReports = %d, want 1", res.MissedReports)
	}
	if got, want := res.Utilization[2][1], res.Utilization[1][1]; got != want { //eucon:float-exact the substitute is a copy of the last report
		t.Errorf("period 2 P2 utilization = %v, want the held period-1 report %v", got, want)
	}
	for k, rates := range res.Rates {
		for i, r := range rates {
			if math.IsNaN(r) || r <= 0 {
				t.Errorf("period %d rate[%d] = %v; the lost report leaked into actuation", k, i, r)
			}
		}
	}
}

// TestServerLossyTransportConverges drives the full loop through a
// probabilistic fault.TransportPlan on every agent's reports: retries
// recover almost every loss, hold-last substitution absorbs the rest, and
// the closed loop still converges to the set points.
func TestServerLossyTransportConverges(t *testing.T) {
	sys := workload.Simple()
	retry := lane.RetryPolicy{Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	plans := []lane.Plan{
		fault.TransportPlan{DropProb: 0.05, Seed: 1},
		fault.TransportPlan{DropProb: 0.05, DelayProb: 0.1, Delay: time.Millisecond, Seed: 2},
	}
	res := runFleet(t, sys, simpleController(t, sys), 80, []Option{WithPeriodTimeout(time.Second)},
		func(p int) []Option {
			return []Option{WithETF(sim.ConstantETF(0.5)), WithSamplingPeriod(workload.SamplingPeriod),
				WithSeed(int64(p + 1)), WithSendFaults(plans[p]), WithRetry(retry)}
		})
	b := sys.DefaultSetPoints()
	for p := range b {
		if mean := tailMean(res, p, 40); math.Abs(mean-b[p]) > 0.03 {
			t.Errorf("P%d tail mean %v over a lossy transport, want ≈ %v", p+1, mean, b[p])
		}
	}
	t.Logf("lossy transport: %d reports degraded around", res.MissedReports)
}

// stepHook runs fn before every control step of the wrapped controller.
type stepHook struct {
	sim.Controller
	fn func(k int)
}

// Step implements sim.Controller.
func (h stepHook) Step(k int, u, rates []float64) ([]float64, error) {
	h.fn(k)
	return h.Controller.Step(k, u, rates)
}

// TestServerShutsDownLateJoin pins Run's shutdown against a join that
// arrives too late: processor 2's hello is buffered while the last period
// is being stepped, so the control loop never handles it. Run must still
// tell that agent the run is over instead of leaving it to wait out its
// I/O timeout for a join ack.
func TestServerShutsDownLateJoin(t *testing.T) {
	const periods = 5
	sys := workload.Simple()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var srv *Server
	late := make(chan error, 1)
	ctrl := stepHook{Controller: simpleController(t, sys), fn: func(k int) {
		if k != periods-1 {
			return
		}
		go func() { late <- RunAgent(ctx, sys, 1, addr, WithIOTimeout(3*time.Second)) }()
		waitFor(t, func() bool { return len(srv.events) > 0 })
	}}
	srv, err = NewServer(sys, ctrl, ln, WithPeriods(periods))
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { first <- RunAgent(ctx, sys, 0, addr) }()
	res, err := srv.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Errorf("agent P1: %v", err)
	}
	if err := <-late; err != nil {
		t.Errorf("late agent P2 was stranded: %v", err)
	}
	if res.Periods != periods || res.Joins != 1 {
		t.Errorf("run record: periods=%d joins=%d, want %d periods and only P1 joined", res.Periods, res.Joins, periods)
	}
}
