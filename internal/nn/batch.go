package nn

import "fmt"

// Batched inference path. Forward (network.go) is the training path: each
// layer caches its input for Backward and owns the scratch its output lives
// in, so two goroutines can never share a network. ForwardBatch is the
// read-only counterpart: it touches nothing but the layer weights and keeps
// all intermediate activations in caller-supplied scratch. One network can
// therefore serve any number of concurrent ForwardBatch callers, each with
// its own dst and scratch. Both paths compute the dense products with the
// same GEMM, MatMulInto.

// InferScratch holds the intermediate activation buffers for ForwardBatch.
// The zero value is ready to use; buffers grow on demand and are reused
// across calls. An InferScratch must not be shared between concurrent calls.
type InferScratch struct {
	a, b Matrix
}

// ForwardBatch evaluates the network on a batch (rows of x are samples),
// writing the output into dst. Unlike Forward it does not mutate the network
// or any layer scratch: it is safe to call concurrently from many goroutines
// on one network — each with its own dst and scratch — provided nothing is
// training the network at the same time.
//
// Results are bit-identical to Forward on the same batch for any operands,
// Inf and NaN included, because both run the same MatMulInto, bias add and
// ReLU kernels. Against Forward on a different batching of the same rows (say one row
// at a time) they stay bit-identical as long as the weights and activations
// are finite: MatMulInto's block shapes differ only in which exact 0·b
// products they skip, and only an Inf or NaN b makes such a product visible.
func (n *Network) ForwardBatch(dst *Matrix, s *InferScratch, x *Matrix) error {
	cur := x
	bufs := [2]*Matrix{&s.a, &s.b}
	idx := 0
	next := func(li int) *Matrix {
		if li == len(n.Layers)-1 {
			// The last layer writes straight into dst, saving a full
			// output-sized copy on large batches.
			return dst
		}
		m := bufs[idx]
		idx ^= 1
		return m
	}
	for li, l := range n.Layers {
		switch layer := l.(type) {
		case *Dense:
			out := next(li)
			if err := MatMulInto(out, cur, layer.W.Value); err != nil {
				return fmt.Errorf("nn: batch layer %d: %w", li, err)
			}
			if err := out.AddRowVector(layer.B.Value); err != nil {
				return fmt.Errorf("nn: batch layer %d: %w", li, err)
			}
			cur = out
		case *ReLU:
			out := next(li)
			out.Reshape(cur.Rows, cur.Cols)
			batchReLU(out.Data, cur.Data)
			cur = out
		default:
			return fmt.Errorf("nn: batch forward cannot evaluate layer type %T", l)
		}
	}
	if cur != dst {
		dst.Reshape(cur.Rows, cur.Cols)
		copy(dst.Data, cur.Data)
	}
	return nil
}

// batchReLU writes dst[i] = max(src[i], 0), vectorized where available. The
// AVX path uses VMAXPD with +0 as the tie/NaN-winning operand, which matches
// the scalar branch bit for bit (negatives, -0 and NaN all become +0).
func batchReLU(dst, src []float64) {
	i := 0
	if useAVX {
		if n4 := len(src) &^ 3; n4 > 0 {
			vecMaxZero(&dst[0], &src[0], n4)
			i = n4
		}
	}
	for ; i < len(src); i++ {
		if v := src[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// batchReLUGrad writes dst[i] = grad[i] where out[i] > 0 and +0 where out[i]
// is not positive or is NaN, vectorized where available: the AVX path masks
// grad's bits with an ordered greater-than compare, which matches the scalar
// branch bit for bit without branching on signs that are random in training.
func batchReLUGrad(dst, grad, out []float64) {
	i := 0
	if useAVX {
		if n4 := len(grad) &^ 3; n4 > 0 {
			vecMaskPositive(&dst[0], &grad[0], &out[0], n4)
			i = n4
		}
	}
	for ; i < len(grad); i++ {
		if out[i] > 0 {
			dst[i] = grad[i]
		} else {
			dst[i] = 0
		}
	}
}
