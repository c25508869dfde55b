package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/rtsyslab/eucon/internal/core"
	"github.com/rtsyslab/eucon/internal/deucon"
	"github.com/rtsyslab/eucon/internal/lane"
	"github.com/rtsyslab/eucon/internal/sim"
	"github.com/rtsyslab/eucon/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestSampleCountRule pins the rule that a percentile is reported only
// with at least ten samples beyond it.
func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {10000, 0.999, true}, {9999, 0.999, false},
		{200, 0.95, true}, {199, 0.95, false}, {20, 0.5, true}, {19, 0.5, false},
	} {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{40000, 0.999}, {1000, 0.99}, {476, 0.95}, {119, 0.90}, {20, 0.5}, {19, 0},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// TestSelfTime covers nested, overlapping, and out-of-window child spans.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{name: "run", parent: noSpan, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "a.inner", parent: 1, start: 15, end: 20}, // nested: not a child of run
		{name: "b", parent: 0, start: 25, end: 50},       // overlaps a
		{name: "c", parent: 0, start: 90, end: 120},      // runs past its parent
		{name: "d", parent: 0, start: 40, end: 45},       // inside b
	}
	ss := newSpanSet(spans)
	// run's children cover [10,50] and [90,100]: 50 of its 100.
	if got := ss.self(0); got != 50 {
		t.Errorf("self(run) = %d, want 50", got)
	}
	if got := ss.self(1); got != 15 {
		t.Errorf("self(a) = %d, want 15", got)
	}
	if got := ss.self(4); got != 30 {
		t.Errorf("self(c) = %d, want 30 (no children)", got)
	}
	if got := ss.totalDur(ss.named("a")); got != 20 {
		t.Errorf("totalDur(a) = %d, want 20", got)
	}
}

func TestCoveredDisjointAndEmpty(t *testing.T) {
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered(no intervals) = %d", got)
	}
	if got := covered(0, 100, []interval{{70, 80}, {0, 10}, {10, 20}, {-5, 2}}); got != 30 {
		t.Errorf("covered = %d, want 30", got)
	}
}

// TestCountingConn sends N frames through the counting conn and the
// timing codec and checks the exact write calls, bytes, and encode calls,
// then reads them back and checks the read side.
func TestCountingConn(t *testing.T) {
	const n = 25
	probe := &laneProbe{tr: newTracer()}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	codec := &timedCodec{inner: lane.Binary, probe: probe}
	sender := lane.NewConn(&countingConn{Conn: a, probe: probe}, lane.WithConnCodec(codec))

	m := &lane.Message{Type: lane.TypeRates, Rates: lane.Rates{Period: 7, Values: []float64{0.5, 0.25, 0.125}}}
	body, err := lane.Binary.AppendEncode(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	frame := int64(4 + len(body))

	done := make(chan error, 1)
	go func() {
		recv := lane.NewConn(&countingConn{Conn: b, probe: probe})
		var got lane.Message
		for i := 0; i < n; i++ {
			if err := recv.ReceiveInto(&got, time.Second); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		if err := sender.Send(m, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := probe.writeCalls.Load(); got != n {
		t.Errorf("write calls = %d, want %d", got, n)
	}
	if got := probe.bytesOut.Load(); got != n*frame {
		t.Errorf("bytes out = %d, want %d", got, n*frame)
	}
	if got := probe.encodeCalls.Load(); got != n {
		t.Errorf("encode calls = %d, want %d", got, n)
	}
	// Each frame is read as its length prefix, then its body.
	if got := probe.readCalls.Load(); got != 2*n {
		t.Errorf("read calls = %d, want %d", got, 2*n)
	}
	if got := probe.bytesIn.Load(); got != n*frame {
		t.Errorf("bytes in = %d, want %d", got, n*frame)
	}
	ss := newSpanSet(probe.tr.snapshot())
	if got := len(ss.named("net.write")); got != n {
		t.Errorf("net.write spans = %d, want %d", got, n)
	}
	if got := len(ss.named("lane.encode")); got != n {
		t.Errorf("lane.encode spans = %d, want %d", got, n)
	}
}

func TestCountingListenerWrapsAccepted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	probe := &laneProbe{}
	cl := probe.listener(ln)
	defer cl.Close()
	dialed := make(chan net.Conn, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Error(err)
		}
		dialed <- c
	}()
	c, err := cl.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if d := <-dialed; d != nil {
		defer d.Close()
	}
	if _, ok := c.(*countingConn); !ok {
		t.Fatalf("Accept returned %T, want *countingConn", c)
	}
}

func TestGoldenDigest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.digest")
	lines := `{"sweep":"fig4","workers":1,"points":13,"digest":"e2698528494c2681"}
{"sweep":"fig5","workers":2,"points":9,"digest":"1111111111111111"}
{"sweep":"fig5","workers":1,"points":9,"digest":"441584561a9f7e35"}

{"workload":"LARGE-1024","controller":"DEUCON","workers":1,"etf":1,"periods":120,"digest":"a6bf86ad6d5e157d"}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := goldenDigest(path, fig5Golden)
	if err != nil || got != "441584561a9f7e35" {
		t.Fatalf("fig5 golden = %q, %v", got, err)
	}
	if got, err := goldenDigest(path, large1024Golden); err != nil || got != "a6bf86ad6d5e157d" {
		t.Fatalf("large golden = %q, %v", got, err)
	}

	// A digest that differs from the golden one fails the check.
	c := goldenCheck("441584561a9f7e36", got)
	if c.ok {
		t.Errorf("mismatched digest passed: %+v", c)
	}
	if c := goldenCheck("a6bf86ad6d5e157d", "a6bf86ad6d5e157d"); !c.ok {
		t.Errorf("matching digest failed: %+v", c)
	}

	bad := filepath.Join(dir, "bad.digest")
	if err := os.WriteFile(bad, []byte("{\"sweep\":\"fig5\",\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := goldenDigest(bad, fig5Golden); err == nil {
		t.Error("malformed golden line parsed")
	}
	if _, err := goldenDigest(path, func(goldenLine) bool { return false }); err == nil {
		t.Error("missing golden line found")
	}
	if _, err := goldenDigest(filepath.Join(dir, "absent"), fig5Golden); err == nil {
		t.Error("absent golden file read")
	}
}

// TestRepositoryGoldens reads the committed golden files the benchmark
// compares against.
func TestRepositoryGoldens(t *testing.T) {
	for _, c := range []struct {
		path  string
		match func(goldenLine) bool
		want  string
	}{
		{filepath.Join("..", goldenSweep), fig5Golden, "441584561a9f7e35"},
		{filepath.Join("..", goldenLarge), large1024Golden, "a6bf86ad6d5e157d"},
	} {
		if got, err := goldenDigest(c.path, c.match); err != nil || got != c.want {
			t.Errorf("%s: got %q, %v; want %s", c.path, got, err, c.want)
		}
	}
}

// TestStepperForwardsReporters checks the wrapper exposes exactly the
// optional interfaces of the controller it wraps.
func TestStepperForwardsReporters(t *testing.T) {
	mpcCtrl, err := core.New(workload.Simple(), nil, workload.SimpleController())
	if err != nil {
		t.Fatal(err)
	}
	w := newStepper(mpcCtrl, "core.step", nil).controller()
	if _, ok := w.(sim.DegradationReporter); !ok {
		t.Error("wrapped core controller lost DegradationReporter")
	}
	if _, ok := w.(sim.ContainmentReporter); !ok {
		t.Error("wrapped core controller lost ContainmentReporter")
	}
	dc, err := deucon.New(workload.Simple(), nil, deucon.Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	w = newStepper(dc, "deucon.step", nil).controller()
	if _, ok := w.(sim.DegradationReporter); ok {
		t.Error("wrapped deucon controller gained DegradationReporter")
	}
	if _, ok := w.(sim.ContainmentReporter); ok {
		t.Error("wrapped deucon controller gained ContainmentReporter")
	}
}

// TestStepperLeavesTraceUnchanged runs SIMPLE with and without the traced
// wrapper and compares the trajectories bit for bit.
func TestStepperLeavesTraceUnchanged(t *testing.T) {
	run := func(wrap bool) string {
		ctrl, err := core.New(workload.Simple(), nil, workload.SimpleController())
		if err != nil {
			t.Fatal(err)
		}
		var c sim.Controller = ctrl
		if wrap {
			st := newStepper(ctrl, "core.step", newTracer())
			st.allocEvery = 1
			st.beginRun(noSpan, 100, 50, 2)
			c = st.controller()
		}
		s, err := sim.New(sim.Config{System: workload.Simple(), SamplingPeriod: workload.SamplingPeriod,
			Periods: 100, Controller: c, ETF: sim.ConstantETF(2), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := s.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return traceDigest(tr)
	}
	if plain, wrapped := run(false), run(true); plain != wrapped {
		t.Errorf("wrapped run digest %s, plain %s", wrapped, plain)
	}
}

// TestLaneRepChecksPass runs one lane-simple repetition end to end.
func TestLaneRepChecksPass(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 20000 periods over loopback TCP")
	}
	r, err := laneRep(&env{ctx: context.Background(), seed: 1, tr: newTracer()})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.checks {
		if !c.ok {
			t.Errorf("check failed: %s (%s)", c.name, c.detail)
		}
	}
	if r.layer["lane.writes_per_frame"] <= 0 || r.layer["agent.periods"] != lanePeriods {
		t.Errorf("lane counters missing: %v", r.layer)
	}
}

// TestRepPercentile pins when repetition percentiles are pooled.
func TestRepPercentile(t *testing.T) {
	seq := func(n int, scale float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = scale * float64(i+1)
		}
		return s
	}
	// Every repetition supports p99: median of the three repetition p99s.
	reps := [][]float64{seq(1000, 1), seq(1000, 2), seq(1000, 10)}
	if got := repPercentile(reps, 0.99); got != 1980 {
		t.Errorf("per-repetition p99 = %g, want 1980", got)
	}
	// 120 samples each cannot support p99: pool them.
	reps = [][]float64{seq(120, 1), seq(120, 1), seq(120, 1)}
	if got := repPercentile(reps, 0.99); got != 119 {
		t.Errorf("pooled p99 = %g, want 119", got)
	}
	if got := repPercentile(nil, 0.5); got != 0 {
		t.Errorf("no repetitions: %g", got)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{40000, 0.99}, {1000, 0.99}, {480, 0.95}, {240, 0.95}, {119, 0.90}, {5, 0.5},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}
