package eucon

import "github.com/rtsyslab/eucon/internal/core"

// ControllerOption is a functional option for NewControllerOpts. Options
// compose left to right over the zero ControllerConfig (the paper's SIMPLE
// parameters), so an empty option list is equivalent to
// NewController(sys, setPoints, ControllerConfig{}).
type ControllerOption func(*ControllerConfig)

// WithHorizons sets the MPC prediction horizon P and control horizon M
// (paper Table 2: SIMPLE uses P=2, M=1; MEDIUM uses P=4, M=2). Zero keeps
// the default for that horizon.
func WithHorizons(prediction, control int) ControllerOption {
	return func(c *ControllerConfig) {
		c.PredictionHorizon = prediction
		c.ControlHorizon = control
	}
}

// WithTrefOverTs sets the reference trajectory time constant in sampling
// periods (paper Table 2 uses 4).
func WithTrefOverTs(ratio float64) ControllerOption {
	return func(c *ControllerConfig) { c.TrefOverTs = ratio }
}

// WithWeights sets the per-processor tracking weights w_i of the MPC cost
// function; nil means all 1.
func WithWeights(w []float64) ControllerOption {
	return func(c *ControllerConfig) { c.Weights = w }
}

// WithRateMoveWeights sets the per-task control-penalty weights; nil means
// all 1.
func WithRateMoveWeights(w []float64) ControllerOption {
	return func(c *ControllerConfig) { c.RateMoveWeights = w }
}

// WithMeasurementFilter enables the EWMA measurement pre-filter with the
// given alpha in (0, 1]; see ControllerConfig.MeasurementFilter.
func WithMeasurementFilter(alpha float64) ControllerOption {
	return func(c *ControllerConfig) { c.MeasurementFilter = alpha }
}

// WithStalenessBound sets the hold-last-sample staleness bound in sampling
// periods; see ControllerConfig.StalenessBound.
func WithStalenessBound(periods int) ControllerOption {
	return func(c *ControllerConfig) { c.StalenessBound = periods }
}

// WithoutOutputConstraints removes the hard u ≤ B constraints (ablation
// studies only).
func WithoutOutputConstraints() ControllerOption {
	return func(c *ControllerConfig) { c.DisableOutputConstraints = true }
}

// WithRateBox overrides the per-task actuator rate bounds the system
// declares. Either slice may be nil to keep the system's bound on that
// side; a non-nil slice needs one entry per task.
func WithRateBox(rmin, rmax []float64) ControllerOption {
	return func(c *ControllerConfig) {
		c.RateMin = rmin
		c.RateMax = rmax
	}
}

// NewControllerOpts builds an EUCON MPC controller with functional
// options:
//
//	ctrl, err := eucon.NewControllerOpts(sys, nil,
//		eucon.WithHorizons(4, 2),
//		eucon.WithMeasurementFilter(0.3),
//	)
//
// Nil setPoints select each processor's Liu–Layland schedulable bound. An
// empty option list builds the paper's SIMPLE controller.
func NewControllerOpts(sys *System, setPoints []float64, opts ...ControllerOption) (*MPCController, error) {
	var cfg ControllerConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.New(sys, setPoints, cfg)
}
