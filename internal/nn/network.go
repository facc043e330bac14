package nn

import (
	"fmt"
	"math/rand"
	"slices"
)

// Param is a trainable parameter tensor with its gradient accumulator.
type Param struct {
	Value *Matrix
	Grad  *Matrix
}

// ZeroGrad clears the gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad.Data {
		p.Grad.Data[i] = 0
	}
}

// Layer is a differentiable network stage. Forward caches whatever Backward
// needs; Backward accumulates parameter gradients and returns the gradient
// with respect to the layer input.
type Layer interface {
	Forward(x *Matrix) (*Matrix, error)
	Backward(gradOut *Matrix) (*Matrix, error)
	Params() []*Param
}

// Dense is a fully-connected layer: y = x@W + b.
//
// The layer owns reusable scratch buffers for its forward output and
// backward gradients, so the matrices returned by Forward/Backward are valid
// only until the layer's next Forward/Backward call (see Network.Forward).
type Dense struct {
	W *Param
	B *Param

	lastInput *Matrix
	out       Matrix // forward output scratch
	dW        Matrix // weight-gradient scratch
	dx        Matrix // input-gradient scratch
	xT, wT    Matrix // transposed input and weight scratch for Backward
	hot       []int  // per-row hot column of a one-hot gradient (findHot)
}

var _ Layer = (*Dense)(nil)

// NewDense creates a Dense layer with Xavier-initialized weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	w := NewMatrix(in, out)
	w.XavierInit(in, out, rng)
	return &Dense{
		W: &Param{Value: w, Grad: NewMatrix(in, out)},
		B: &Param{Value: NewMatrix(1, out), Grad: NewMatrix(1, out)},
	}
}

// Forward computes x@W + b, caching x for the backward pass.
func (d *Dense) Forward(x *Matrix) (*Matrix, error) {
	d.lastInput = x
	if err := MatMulInto(&d.out, x, d.W.Value); err != nil {
		return nil, fmt.Errorf("dense forward: %w", err)
	}
	if err := d.out.AddRowVector(d.B.Value); err != nil {
		return nil, fmt.Errorf("dense forward: %w", err)
	}
	return &d.out, nil
}

// Backward accumulates dW = xᵀ·g and db = column sums of g, and returns
// dx = g·Wᵀ. Every gradient element is an ascending-k sum of separately
// rounded products started from +0: the bits of the textbook
// transpose-then-multiply formulation.
//
// A gradient whose rows each hold at most one nonzero entry (the Q-learning
// loss: only the taken action's output differs from its target) takes
// backwardOneHot, which touches only the hot columns. Any other gradient
// runs both products on MatMulInto over per-layer transposed copies of x and
// W.
func (d *Dense) Backward(gradOut *Matrix) (*Matrix, error) {
	return d.backward(gradOut, true)
}

// backward is Backward; with wantDX false it skips the input gradient and
// returns nil (Network.Backward's first layer, whose dx nothing reads).
func (d *Dense) backward(gradOut *Matrix, wantDX bool) (*Matrix, error) {
	if d.lastInput == nil {
		return nil, fmt.Errorf("dense backward called before forward")
	}
	x, w := d.lastInput, d.W.Value
	if x.Rows != gradOut.Rows || w.Cols != gradOut.Cols {
		return nil, fmt.Errorf("dense backward: grad shape (%dx%d) vs input %d rows, %d out cols",
			gradOut.Rows, gradOut.Cols, x.Rows, w.Cols)
	}

	bGrad := d.B.Grad.Data
	for i := 0; i < gradOut.Rows; i++ {
		gRow := gradOut.Data[i*gradOut.Cols : (i+1)*gradOut.Cols]
		for j, gv := range gRow {
			bGrad[j] += gv
		}
	}

	if d.findHot(gradOut) && allFinite(x.Data) {
		return d.backwardOneHot(gradOut, wantDX), nil
	}

	// dW is computed into scratch first, then added, to preserve the
	// Grad += (complete sum) accumulation semantics.
	transposeInto(&d.xT, x)
	if err := MatMulInto(&d.dW, &d.xT, gradOut); err != nil {
		return nil, fmt.Errorf("dense backward: %w", err)
	}
	for i, v := range d.dW.Data {
		d.W.Grad.Data[i] += v
	}
	if !wantDX {
		return nil, nil
	}
	transposeInto(&d.wT, w)
	if err := MatMulInto(&d.dx, gradOut, &d.wT); err != nil {
		return nil, fmt.Errorf("dense backward: %w", err)
	}
	return &d.dx, nil
}

// findHot records in d.hot, for each row of g, the column of its only
// nonzero entry (-1 for an all-zero row). It reports false, leaving d.hot
// unspecified, when a row has two nonzero entries or a non-finite one.
func (d *Dense) findHot(g *Matrix) bool {
	if cap(d.hot) < g.Rows {
		d.hot = make([]int, g.Rows)
	}
	d.hot = d.hot[:g.Rows]
	for r := range d.hot {
		hot := -1
		for c, v := range g.Data[r*g.Cols : (r+1)*g.Cols] {
			if v == 0 {
				continue
			}
			if hot >= 0 || v-v != 0 { // v-v is NaN for ±Inf and NaN
				return false
			}
			hot = c
		}
		d.hot[r] = hot
	}
	return true
}

// allFinite reports whether every value is finite.
func allFinite(xs []float64) bool {
	for _, v := range xs {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// backwardOneHot is the weight and input gradient of backward for a
// gradient laid out by findHot, with finite x and g. It keeps the GEMM
// path's bits: there every element of dW and dx is a sum from +0 of products
// in ascending k, and a sum from +0 is never -0, so adding the x·0 and 0·W
// products (each ±0 for finite W) leaves it unchanged. What remains is
//   - dW[i][j] for a hot column j: the ascending sum over the rows k hot in
//     column j of x[k][i]·g[k][j], formed from +0 in scratch and then added
//     to W.Grad; the other columns would add +0, which leaves every
//     accumulator ZeroGrad and Backward produce as it is;
//   - dx[k][i] = 0 + g[k][j]·W[i][j] for row k hot in column j (the 0 + turns
//     a -0 product into the sum's +0), and +0 for an all-zero row.
//
// Products are converted with float64(...) so no architecture fuses them
// into the adds.
func (d *Dense) backwardOneHot(g *Matrix, wantDX bool) *Matrix {
	x, w := d.lastInput, d.W.Value.Data
	in, out := x.Cols, g.Cols

	// Row j of the out x in scratch holds hot column j of dW.
	d.dW.Reshape(out, in)
	for _, j := range d.hot {
		if j >= 0 {
			clear(d.dW.Data[j*in : (j+1)*in])
		}
	}
	for k, j := range d.hot {
		if j < 0 {
			continue
		}
		gv := g.Data[k*out+j]
		acc := d.dW.Data[j*in : (j+1)*in]
		for i, xv := range x.Data[k*in : (k+1)*in] {
			acc[i] += float64(xv * gv)
		}
	}
	wGrad := d.W.Grad.Data
	for k, j := range d.hot {
		if j < 0 || slices.Contains(d.hot[:k], j) {
			continue // all-zero row, or a column an earlier row already added
		}
		for i, v := range d.dW.Data[j*in : (j+1)*in] {
			wGrad[i*out+j] += v
		}
	}
	if !wantDX {
		return nil
	}

	d.dx.Reshape(g.Rows, in)
	for k, j := range d.hot {
		row := d.dx.Data[k*in : (k+1)*in]
		if j < 0 {
			clear(row)
			continue
		}
		gv := g.Data[k*out+j]
		for i := range row {
			row[i] = 0 + float64(gv*w[i*out+j])
		}
	}
	return &d.dx
}

// Params returns the layer's weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// ReLU is the rectified-linear activation. Like Dense, it reuses scratch
// buffers, so returned matrices are valid only until its next call.
type ReLU struct {
	out  Matrix // forward output scratch; out > 0 is the backward mask
	gout Matrix // backward gradient scratch
}

var _ Layer = (*ReLU)(nil)

// Forward zeroes negative activations (and -0 and NaN).
func (r *ReLU) Forward(x *Matrix) (*Matrix, error) {
	r.out.Reshape(x.Rows, x.Cols)
	batchReLU(r.out.Data, x.Data)
	return &r.out, nil
}

// Backward passes the incoming gradient where the forward output was
// positive and zeroes it elsewhere.
func (r *ReLU) Backward(gradOut *Matrix) (*Matrix, error) {
	if len(r.out.Data) != len(gradOut.Data) {
		return nil, fmt.Errorf("relu backward: mask size %d vs grad %d", len(r.out.Data), len(gradOut.Data))
	}
	r.gout.Reshape(gradOut.Rows, gradOut.Cols)
	batchReLUGrad(r.gout.Data, gradOut.Data, r.out.Data)
	return &r.gout, nil
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Network is a feed-forward stack of layers.
type Network struct {
	Layers []Layer
}

// NewMLP builds a multi-layer perceptron with the given layer sizes and ReLU
// activations between dense layers (none after the output layer), matching
// the paper's 4-layer architecture when sizes has 4 entries.
func NewMLP(sizes []int, rng *rand.Rand) (*Network, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: mlp needs at least 2 sizes, got %d", len(sizes))
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("nn: mlp size %d invalid", s)
		}
	}
	var layers []Layer
	for i := 0; i+1 < len(sizes); i++ {
		layers = append(layers, NewDense(sizes[i], sizes[i+1], rng))
		if i+2 < len(sizes) {
			layers = append(layers, &ReLU{})
		}
	}
	return &Network{Layers: layers}, nil
}

// Forward runs the network on a batch (rows are samples).
//
// The returned matrix is owned by the network's output layer and is only
// valid until the next Forward call on this network; callers that need the
// values afterwards must Clone (or copy) them first.
func (n *Network) Forward(x *Matrix) (*Matrix, error) {
	cur := x
	for i, l := range n.Layers {
		var err error
		cur, err = l.Forward(cur)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return cur, nil
}

// Backward propagates the loss gradient through all layers, accumulating
// parameter gradients.
func (n *Network) Backward(gradOut *Matrix) error {
	cur := gradOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		var err error
		if d, ok := n.Layers[i].(*Dense); ok && i == 0 {
			// Nothing reads the gradient with respect to the network input.
			_, err = d.backward(cur, false)
		} else {
			cur, err = n.Layers[i].Backward(cur)
		}
		if err != nil {
			return fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return nil
}

// Params returns all trainable parameters.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of scalar parameters (the paper
// reports 10 664 floats / 42.7 KB for its trained model).
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Value.Data)
	}
	return total
}

// Clone returns a structural deep copy of the network (used for DQN target
// networks).
func (n *Network) Clone() (*Network, error) {
	out := &Network{}
	for _, l := range n.Layers {
		switch layer := l.(type) {
		case *Dense:
			out.Layers = append(out.Layers, &Dense{
				W: &Param{Value: layer.W.Value.Clone(), Grad: NewMatrix(layer.W.Grad.Rows, layer.W.Grad.Cols)},
				B: &Param{Value: layer.B.Value.Clone(), Grad: NewMatrix(layer.B.Grad.Rows, layer.B.Grad.Cols)},
			})
		case *ReLU:
			out.Layers = append(out.Layers, &ReLU{})
		default:
			return nil, fmt.Errorf("nn: cannot clone layer type %T", l)
		}
	}
	return out, nil
}

// CopyWeightsFrom overwrites this network's parameters with src's. The two
// networks must have identical shapes.
func (n *Network) CopyWeightsFrom(src *Network) error {
	dst, from := n.Params(), src.Params()
	if len(dst) != len(from) {
		return fmt.Errorf("nn: parameter count mismatch %d vs %d", len(dst), len(from))
	}
	for i := range dst {
		if len(dst[i].Value.Data) != len(from[i].Value.Data) {
			return fmt.Errorf("nn: parameter %d shape mismatch", i)
		}
		copy(dst[i].Value.Data, from[i].Value.Data)
	}
	return nil
}

// MSELoss returns the mean-squared-error 0.5*mean((pred-target)^2) and
// writes its gradient with respect to pred into grad, reshaping grad (reusing
// its backing array when large enough). grad may alias pred or target.
func MSELoss(grad, pred, target *Matrix) (float64, error) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		return 0, fmt.Errorf("nn: mse shape mismatch (%dx%d) vs (%dx%d)",
			pred.Rows, pred.Cols, target.Rows, target.Cols)
	}
	grad.Reshape(pred.Rows, pred.Cols)
	var loss float64
	n := float64(len(pred.Data))
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += 0.5 * d * d / n
		grad.Data[i] = d / n
	}
	return loss, nil
}
