package ag

import (
	"fmt"
	"math"
)

// GradCheck verifies the analytic gradients of a scalar loss against central
// finite differences — the wbdebug harness for auditing every op's backward
// closure. build must record the loss of the current parameter values on the
// tape it is given and be deterministic: called twice with the same
// parameter values it must produce the same loss (per-example randomness
// must come from a freshly seeded tape rng inside build, which is exactly
// the engine's dropout convention).
//
// For every element of every parameter it computes
//
//	num = (L(θ+ε) - L(θ-ε)) / 2ε
//
// and compares it to the analytic gradient from one Backward pass. The
// relative error |num-ana| / max(|num|, |ana|, 1) must stay within tol for
// all elements; the first few offenders are reported otherwise. The max(…,1)
// floor makes the criterion absolute near zero, where relative error is
// meaningless.
//
//wbcheck:ignore deadexport -- oracle: the finite-difference reference every TestGradCheck* in gradcheck_test.go compares Backward against
func GradCheck(params []*Param, build func(t *Tape) *Node, eps, tol float64) error {
	// Analytic pass.
	for _, p := range params {
		p.ZeroGrad()
	}
	t := NewTape()
	t.Backward(build(t))
	analytic := make([][]float64, len(params))
	for i, p := range params {
		analytic[i] = append([]float64(nil), p.Grad.Data...)
		p.ZeroGrad()
	}

	value := func() float64 {
		return build(NewTape()).Value.Data[0]
	}

	var errs []string
	for i, p := range params {
		for j := range p.Value.Data {
			orig := p.Value.Data[j]
			p.Value.Data[j] = orig + eps
			lp := value()
			p.Value.Data[j] = orig - eps
			lm := value()
			p.Value.Data[j] = orig

			num := (lp - lm) / (2 * eps)
			ana := analytic[i][j]
			denom := math.Max(math.Max(math.Abs(num), math.Abs(ana)), 1)
			if rel := math.Abs(num-ana) / denom; rel > tol {
				errs = append(errs, fmt.Sprintf(
					"param %s[%d]: analytic %.8g vs numeric %.8g (rel %.3g)",
					p.Name, j, ana, num, rel))
				if len(errs) == 5 {
					return fmt.Errorf("gradient check failed (showing first 5):\n%s", join(errs))
				}
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("gradient check failed:\n%s", join(errs))
	}
	return nil
}

func join(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n"
		}
		out += "  " + l
	}
	return out
}
