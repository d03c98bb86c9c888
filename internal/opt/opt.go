// Package opt implements the optimizers and learning-rate schedules used to
// train every model in this repository: Adam with β1=0.9, β2=0.999, linear
// warmup, exponential decay, and global-norm gradient clipping — the exact
// configuration reported in §IV-A5 of the paper.
package opt

import (
	"math"

	"webbrief/internal/ag"
)

// Schedule maps a 0-based step number to a learning-rate multiplier.
type Schedule interface {
	// Factor returns the multiplier applied to the base learning rate at
	// the given step.
	Factor(step int) float64
}

// ConstantSchedule always returns 1.
type ConstantSchedule struct{}

// Factor implements Schedule.
func (ConstantSchedule) Factor(int) float64 { return 1 }

// WarmupDecay implements the paper's schedule: linear warmup for WarmupSteps
// steps, then multiplicative decay by DecayRate every DecayEvery steps.
type WarmupDecay struct {
	WarmupSteps int
	DecayRate   float64 // e.g. 0.1 per paper
	DecayEvery  int     // steps between decays; 0 disables decay
}

// Factor implements Schedule.
func (s WarmupDecay) Factor(step int) float64 {
	f := 1.0
	if s.WarmupSteps > 0 && step < s.WarmupSteps {
		f = float64(step+1) / float64(s.WarmupSteps)
	}
	if s.DecayEvery > 0 && step >= s.WarmupSteps {
		n := (step - s.WarmupSteps) / s.DecayEvery
		f *= math.Pow(s.DecayRate, float64(n))
	}
	return f
}

// Optimizer updates a fixed set of parameters from their accumulated
// gradients.
type Optimizer interface {
	// Step applies one update using the gradients currently stored in the
	// parameters, then zeroes them.
	Step()
	// ZeroGrad clears all parameter gradients without updating.
	ZeroGrad()
}

// Adam is the Adam optimizer with optional gradient clipping and schedule.
type Adam struct {
	Params   []*ag.Param
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	Clip     float64 // max global gradient norm; 0 disables clipping
	Schedule Schedule

	step int
	m, v [][]float64
}

// NewAdam returns an Adam optimizer over params with the paper's defaults
// (β1=0.9, β2=0.999, ε=1e-8, no clipping, constant schedule).
func NewAdam(params []*ag.Param, lr float64) *Adam {
	a := &Adam{
		Params:   params,
		LR:       lr,
		Beta1:    0.9,
		Beta2:    0.999,
		Eps:      1e-8,
		Schedule: ConstantSchedule{},
	}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.Value.Data))
		a.v[i] = make([]float64, len(p.Value.Data))
	}
	return a
}

// globalGradNorm returns the L2 norm of all gradients concatenated.
func globalGradNorm(params []*ag.Param) float64 {
	var s float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// clipGradNorm rescales gradients in place so the global norm is at most
// maxNorm; it returns the pre-clip norm.
func clipGradNorm(params []*ag.Param, maxNorm float64) float64 {
	norm := globalGradNorm(params)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / (norm + 1e-12)
		for _, p := range params {
			for i := range p.Grad.Data {
				p.Grad.Data[i] *= scale
			}
		}
	}
	return norm
}

// Step implements Optimizer.
func (a *Adam) Step() {
	if a.Clip > 0 {
		clipGradNorm(a.Params, a.Clip)
	}
	a.step++
	lr := a.LR * a.Schedule.Factor(a.step-1)
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.Params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad.Data {
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			mHat := m[j] / bc1
			vHat := v[j] / bc2
			p.Value.Data[j] -= lr * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
	a.ZeroGrad()
}

// ZeroGrad implements Optimizer.
func (a *Adam) ZeroGrad() {
	for _, p := range a.Params {
		p.ZeroGrad()
	}
}
