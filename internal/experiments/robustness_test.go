package experiments

import (
	"math"
	"testing"

	"github.com/rtsyslab/eucon/internal/sim"
)

// syntheticTrace builds a one-processor trace from a utilization series.
func syntheticTrace(u []float64) *sim.Trace {
	rows := make([][]float64, len(u))
	for k, v := range u {
		rows[k] = []float64{v}
	}
	return &sim.Trace{Utilization: rows}
}

func TestTraceRobustness(t *testing.T) {
	// Constant series at the set point: settles immediately, fully in
	// spec, no overshoot.
	flat := make([]float64, 20)
	for k := range flat {
		flat[k] = 0.8
	}
	r := TraceRobustness(syntheticTrace(flat), []float64{0.8}, 10, 20)
	if r.SettlingTime != 0 || r.MaxOvershoot != 0 || r.TimeInSpec[0] != 1 {
		t.Errorf("flat series robustness = %+v, want settle 0, overshoot 0, in-spec 1", r)
	}

	// A step that recovers: out of spec early, overshoot recorded inside
	// the window, settles at the recovery.
	step := make([]float64, 20)
	for k := range step {
		switch {
		case k < 12:
			step[k] = 0.8
		case k < 14:
			step[k] = 0.95
		default:
			step[k] = 0.8
		}
	}
	r = TraceRobustness(syntheticTrace(step), []float64{0.8}, 10, 20)
	if r.SettlingTime <= 0 {
		t.Errorf("step series settling = %d, want > 0", r.SettlingTime)
	}
	if r.MaxOvershoot < 0.149 || r.MaxOvershoot > 0.151 {
		t.Errorf("step series overshoot = %g, want 0.15", r.MaxOvershoot)
	}
	if r.TimeInSpec[0] != 0.8 { // 2 of 10 window periods out of spec
		t.Errorf("step series in-spec = %g, want 0.8", r.TimeInSpec[0])
	}

	// A diverging series never settles.
	div := make([]float64, 20)
	for k := range div {
		div[k] = 0.8 + 0.05*float64(k)
	}
	r = TraceRobustness(syntheticTrace(div), []float64{0.8}, 10, 20)
	if r.SettlingTime != -1 {
		t.Errorf("diverging series settling = %d, want -1", r.SettlingTime)
	}

	// Window clamping past the trace end.
	r = TraceRobustness(syntheticTrace(flat), []float64{0.8}, 10, 300)
	if r.TimeInSpec[0] != 1 {
		t.Errorf("clamped window in-spec = %g, want 1", r.TimeInSpec[0])
	}
}

// TestTraceRobustnessNaNSamples is the regression test for NaN poisoning:
// non-finite utilization samples (lost reports recorded as NaN) must be
// counted as maximally out of spec — NaN-absorbing comparisons used to drop
// them silently, reporting a calm overshoot for a broken run.
func TestTraceRobustnessNaNSamples(t *testing.T) {
	u := make([]float64, 20)
	for k := range u {
		u[k] = 0.8
	}
	u[12] = math.NaN()
	u[15] = math.Inf(1)
	r := TraceRobustness(syntheticTrace(u), []float64{0.8}, 10, 20)
	if r.TimeInSpec[0] != 0.8 { // 2 of 10 window periods are non-finite
		t.Errorf("NaN series in-spec = %g, want 0.8", r.TimeInSpec[0])
	}
	if math.IsNaN(r.MaxOvershoot) {
		t.Error("MaxOvershoot is NaN; non-finite samples must not poison the metric")
	}
	if want := 1 - 0.8; math.Abs(r.MaxOvershoot-want) > 1e-12 {
		t.Errorf("NaN series overshoot = %g, want full-scale %g", r.MaxOvershoot, want)
	}
	// A NaN in the smoothed tail means the run never provably settles.
	tail := make([]float64, 20)
	for k := range tail {
		tail[k] = 0.8
	}
	tail[19] = math.NaN()
	if r = TraceRobustness(syntheticTrace(tail), []float64{0.8}, 10, 20); r.SettlingTime != -1 {
		t.Errorf("trailing-NaN settling = %d, want -1", r.SettlingTime)
	}
}

// TestWorseRobustnessNaN pins that pooling replications treats NaN fields
// as worst case instead of dropping them in NaN-absorbing comparisons.
func TestWorseRobustnessNaN(t *testing.T) {
	a := Robustness{SettlingTime: 5, MaxOvershoot: 0.1, TimeInSpec: []float64{0.9}}
	b := Robustness{SettlingTime: 7, MaxOvershoot: math.NaN(), TimeInSpec: []float64{math.NaN()}}
	got := worseRobustness(a, b)
	if got.MaxOvershoot != 1 {
		t.Errorf("NaN overshoot pooled to %g, want full-scale 1", got.MaxOvershoot)
	}
	if got.TimeInSpec[0] != 0 {
		t.Errorf("NaN in-spec pooled to %g, want 0", got.TimeInSpec[0])
	}
	got = worseRobustness(Robustness{MaxOvershoot: math.NaN(), TimeInSpec: []float64{math.NaN()}},
		Robustness{MaxOvershoot: 0.2, TimeInSpec: []float64{0.7}})
	if got.MaxOvershoot != 1 || got.TimeInSpec[0] != 0 {
		t.Errorf("NaN first replication pooled to %+v, want overshoot 1, in-spec 0", got)
	}
}

func TestWorseRobustness(t *testing.T) {
	a := Robustness{SettlingTime: 5, MaxOvershoot: 0.1, TimeInSpec: []float64{1, 0.9}}
	b := Robustness{SettlingTime: 12, MaxOvershoot: 0.05, TimeInSpec: []float64{0.8, 0.95}}
	got := worseRobustness(a, b)
	if got.SettlingTime != 12 || got.MaxOvershoot != 0.1 {
		t.Errorf("pooled = %+v, want settle 12, overshoot 0.1", got)
	}
	if got.TimeInSpec[0] != 0.8 || got.TimeInSpec[1] != 0.9 {
		t.Errorf("pooled in-spec = %v, want [0.8 0.9]", got.TimeInSpec)
	}
	never := Robustness{SettlingTime: -1, TimeInSpec: []float64{1, 1}}
	if got = worseRobustness(got, never); got.SettlingTime != -1 {
		t.Errorf("never-settling replication pooled to %d, want -1", got.SettlingTime)
	}
}
