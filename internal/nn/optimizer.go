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
			p.Value.Data[i] -= float64(o.LR * scale * p.Grad.Data[i])
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
	c := adamCoeffs{
		scale:  clipScale(params, o.ClipNorm),
		beta1:  o.Beta1,
		mBeta1: 1 - o.Beta1,
		beta2:  o.Beta2,
		mBeta2: 1 - o.Beta2,
		bc1:    1 - math.Pow(o.Beta1, float64(o.step)),
		bc2:    1 - math.Pow(o.Beta2, float64(o.step)),
		lr:     o.LR,
		eps:    o.Eps,
	}
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
		adamUpdate(p.Value.Data, p.Grad.Data, m, v, &c)
	}
	return nil
}

// adamCoeffs holds one Adam step's scalars, in the field order adamAVX
// (gemm_amd64.s) reads them.
type adamCoeffs struct {
	scale         float64 // gradient clipping multiplier
	beta1, mBeta1 float64 // β1 and 1-β1
	beta2, mBeta2 float64 // β2 and 1-β2
	bc1, bc2      float64 // bias corrections 1-β1^t and 1-β2^t
	lr, eps       float64
}

// adamUpdate applies one Adam update to the parameter values p from their
// gradients g and moments m and v, all of p's length. On amd64 with AVX the
// first len(p)&^3 elements go through adamAVX, which runs the loop below's
// operations in the same order, each rounded separately, four elements per
// instruction: the bits do not change.
func adamUpdate(p, g, m, v []float64, c *adamCoeffs) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	i := 0
	if useAVX {
		if n4 := len(p) &^ 3; n4 > 0 {
			adamAVX(&p[0], &g[0], &m[0], &v[0], n4, c)
			i = n4
		}
	}
	for ; i < len(p); i++ {
		gs := float64(g[i] * c.scale)
		m[i] = float64(c.beta1*m[i]) + float64(c.mBeta1*gs)
		v[i] = float64(c.beta2*v[i]) + float64(float64(c.mBeta2*gs)*gs)
		mhat := m[i] / c.bc1
		vhat := v[i] / c.bc2
		p[i] -= float64(c.lr*mhat) / (math.Sqrt(vhat) + c.eps)
	}
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
			sq += float64(g * g)
		}
	}
	norm := math.Sqrt(sq)
	if norm <= clipNorm {
		return 1
	}
	return clipNorm / norm
}
