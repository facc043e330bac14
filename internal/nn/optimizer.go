package nn

import (
	"fmt"
	"math"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	Step(params []*Param) error
}

// SGD is plain stochastic gradient descent with optional gradient clipping.
type SGD struct {
	LR       float64
	ClipNorm float64 // 0 disables clipping
}

var _ Optimizer = (*SGD)(nil)

// Step applies one SGD update.
func (o *SGD) Step(params []*Param) error {
	if !(o.LR > 0) {
		return fmt.Errorf("nn: sgd learning rate %v must be positive", o.LR)
	}
	scale := clipScale(params, o.ClipNorm)
	for _, p := range params {
		for i := range p.Value.Data {
			p.Value.Data[i] -= o.LR * scale * p.Grad.Data[i]
		}
	}
	return nil
}

// Adam implements the Adam optimizer (Kingma & Ba 2015) with bias
// correction and optional global-norm gradient clipping.
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	ClipNorm float64

	step int
	m    map[*Param][]float64
	v    map[*Param][]float64
}

var _ Optimizer = (*Adam)(nil)

// NewAdam returns an Adam optimizer with standard defaults for the
// unset coefficients.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update.
func (o *Adam) Step(params []*Param) error {
	if !(o.LR > 0) {
		return fmt.Errorf("nn: adam learning rate %v must be positive", o.LR)
	}
	if o.m == nil {
		o.m = make(map[*Param][]float64, len(params))
		o.v = make(map[*Param][]float64, len(params))
	}
	o.step++
	scale := clipScale(params, o.ClipNorm)
	bc1 := 1 - math.Pow(o.Beta1, float64(o.step))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.step))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = make([]float64, len(p.Value.Data))
			o.m[p] = m
		}
		v, ok := o.v[p]
		if !ok {
			v = make([]float64, len(p.Value.Data))
			o.v[p] = v
		}
		for i := range p.Value.Data {
			g := p.Grad.Data[i] * scale
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			p.Value.Data[i] -= o.LR * mhat / (math.Sqrt(vhat) + o.Eps)
		}
	}
	return nil
}

// clipScale returns the multiplier that caps the global gradient norm at
// clipNorm (1 when clipping is disabled or unnecessary).
func clipScale(params []*Param, clipNorm float64) float64 {
	if clipNorm <= 0 {
		return 1
	}
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= clipNorm {
		return 1
	}
	return clipNorm / norm
}
