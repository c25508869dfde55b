package eucon_test

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	eucon "github.com/rtsyslab/eucon"
)

// joinGate wraps the daemon's listener so that no lane writes its first
// frame (the join ack) until n lanes are ready to. No agent can report
// before every agent's join was handled, so the lockstep daemon steps its
// first period with the full fleet instead of racing the later hellos.
type joinGate struct {
	net.Listener
	n    int
	mu   sync.Mutex
	seen int
	open chan struct{}
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

// TestServeControllerFacade drives the paper's SIMPLE workload through the
// root distributed facade: one controller daemon, two node agents (one per
// processor, deliberately on different wire codecs), lockstep loop. The
// join gate makes the run deterministic: both agents join before period 0.
func TestServeControllerFacade(t *testing.T) {
	sys := eucon.SimpleWorkload()
	ctrl, err := eucon.NewController(sys, nil, eucon.SimpleControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	codecs := []eucon.WireCodec{eucon.BinaryCodec, eucon.JSONCodec}
	for p := 0; p < sys.Processors; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := eucon.RunNodeAgent(ctx, sys, p, addr,
				eucon.DistributedETF(eucon.ConstantETF(1)),
				eucon.DistributedCodec(codecs[p%len(codecs)]))
			if err != nil {
				t.Errorf("agent P%d: %v", p+1, err)
			}
		}()
	}

	gate := &joinGate{Listener: ln, n: sys.Processors, open: make(chan struct{})}
	res, err := eucon.ServeController(ctx, sys, ctrl, gate,
		eucon.DistributedPeriods(60), eucon.DistributedTrace(true))
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Periods != 60 || res.Joins != sys.Processors || res.Crashes != 0 {
		t.Fatalf("run record: periods=%d joins=%d crashes=%d", res.Periods, res.Joins, res.Crashes)
	}
	sp := ctrl.SetPoints()
	final := res.Utilization[len(res.Utilization)-1]
	for p, v := range final {
		if math.Abs(v-sp[p]) > 0.05 {
			t.Errorf("u(P%d) = %.4f, want %.4f ± 0.05", p+1, v, sp[p])
		}
	}
}
