package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"ctjam/internal/ckpt"
)

// Serialization format: a small custom binary layout (magic, version, layer
// descriptors, float64 parameters, little endian). The paper reports its
// trained model as "a series of matrices ... 10664 float numbers with 42.7KB
// memory"; SerializedSize reports the equivalent figure for a network.

const (
	modelMagic   = 0x43544A4D // "CTJM"
	modelVersion = 1

	layerKindDense = 1
	layerKindReLU  = 2
)

// ErrBadModelFile is returned when decoding an invalid model stream.
var ErrBadModelFile = errors.New("nn: bad model file")

// Save writes the network architecture and parameters to w.
func (n *Network) Save(w io.Writer) error {
	write := func(v any) error { return binary.Write(w, binary.LittleEndian, v) }
	if err := ckpt.WriteHeader(w, modelMagic, modelVersion); err != nil {
		return err
	}
	if err := write(uint32(len(n.Layers))); err != nil {
		return err
	}
	for _, l := range n.Layers {
		switch layer := l.(type) {
		case *Dense:
			if err := write(uint32(layerKindDense)); err != nil {
				return err
			}
			if err := write(uint32(layer.W.Value.Rows)); err != nil {
				return err
			}
			if err := write(uint32(layer.W.Value.Cols)); err != nil {
				return err
			}
			for _, v := range layer.W.Value.Data {
				if err := write(math.Float64bits(v)); err != nil {
					return err
				}
			}
			for _, v := range layer.B.Value.Data {
				if err := write(math.Float64bits(v)); err != nil {
					return err
				}
			}
		case *ReLU:
			if err := write(uint32(layerKindReLU)); err != nil {
				return err
			}
		default:
			return fmt.Errorf("nn: cannot serialize layer type %T", l)
		}
	}
	return nil
}

// Load reads a network saved with Save.
func Load(r io.Reader) (*Network, error) {
	read := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	if err := ckpt.ReadHeader(r, modelMagic, modelVersion, ErrBadModelFile); err != nil {
		return nil, err
	}
	var nLayers uint32
	if err := read(&nLayers); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
	}
	if nLayers > 1024 {
		return nil, fmt.Errorf("%w: implausible layer count %d", ErrBadModelFile, nLayers)
	}
	net := &Network{}
	for li := uint32(0); li < nLayers; li++ {
		var kind uint32
		if err := read(&kind); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
		}
		switch kind {
		case layerKindDense:
			var rows, cols uint32
			if err := read(&rows); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
			}
			if err := read(&cols); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
			}
			// Bound the product, not just each dimension: two in-range
			// dimensions can still multiply to a terabyte-scale allocation.
			if rows == 0 || cols == 0 || uint64(rows)*uint64(cols) > 1<<24 {
				return nil, fmt.Errorf("%w: implausible dense shape %dx%d", ErrBadModelFile, rows, cols)
			}
			w, err := readFloats(r, int(rows)*int(cols))
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
			}
			b, err := readFloats(r, int(cols))
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadModelFile, err)
			}
			d := &Dense{
				W: &Param{Value: &Matrix{Rows: int(rows), Cols: int(cols), Data: w}, Grad: NewMatrix(int(rows), int(cols))},
				B: &Param{Value: &Matrix{Rows: 1, Cols: int(cols), Data: b}, Grad: NewMatrix(1, int(cols))},
			}
			net.Layers = append(net.Layers, d)
		case layerKindReLU:
			net.Layers = append(net.Layers, &ReLU{})
		default:
			return nil, fmt.Errorf("%w: unknown layer kind %d", ErrBadModelFile, kind)
		}
	}
	return net, nil
}

// readFloats reads n little-endian float64 values. It grows its result as
// the values arrive, so a header that claims more values than the stream
// holds fails having allocated about twice what the stream supplied, not
// what the header claimed.
func readFloats(r io.Reader, n int) ([]float64, error) {
	var buf [8 * 512]byte
	out := make([]float64, 0, min(n, len(buf)/8))
	for len(out) < n {
		if len(out) == cap(out) {
			grown := make([]float64, len(out), min(n, 2*cap(out)))
			copy(grown, out)
			out = grown
		}
		k := min(cap(out)-len(out), len(buf)/8)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
		}
	}
	return out, nil
}

// SaveAdam writes an Adam optimizer's mutable state (step counter and first/
// second moment estimates) for the given parameter list. The encoding is
// order-sensitive: LoadAdam must be called with the same parameters in the
// same order, which Network.Params guarantees for an unchanged architecture.
func (o *Adam) SaveAdam(w io.Writer, params []*Param) error {
	write := func(v any) error { return binary.Write(w, binary.LittleEndian, v) }
	if err := write(uint64(o.step)); err != nil {
		return err
	}
	if err := write(uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		n := len(p.Value.Data)
		if err := write(uint32(n)); err != nil {
			return err
		}
		for _, moments := range [2]map[*Param][]float64{o.m, o.v} {
			buf := moments[p] // nil before the first Step: encode zeros
			for i := 0; i < n; i++ {
				var x float64
				if buf != nil {
					x = buf[i]
				}
				if err := write(math.Float64bits(x)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// LoadAdam restores state written by SaveAdam into o, keyed to params (same
// list, same order as at save time).
func (o *Adam) LoadAdam(r io.Reader, params []*Param) error {
	read := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var step uint64
	if err := read(&step); err != nil {
		return fmt.Errorf("%w: adam step: %v", ErrBadModelFile, err)
	}
	if step > 1<<40 {
		return fmt.Errorf("%w: implausible adam step %d", ErrBadModelFile, step)
	}
	var nParams uint32
	if err := read(&nParams); err != nil {
		return fmt.Errorf("%w: adam param count: %v", ErrBadModelFile, err)
	}
	if int(nParams) != len(params) {
		return fmt.Errorf("%w: adam state has %d params, want %d", ErrBadModelFile, nParams, len(params))
	}
	m := make(map[*Param][]float64, len(params))
	v := make(map[*Param][]float64, len(params))
	for _, p := range params {
		var n uint32
		if err := read(&n); err != nil {
			return fmt.Errorf("%w: adam moment size: %v", ErrBadModelFile, err)
		}
		if int(n) != len(p.Value.Data) {
			return fmt.Errorf("%w: adam moment has %d values, param has %d", ErrBadModelFile, n, len(p.Value.Data))
		}
		for _, dst := range [2]map[*Param][]float64{m, v} {
			buf := make([]float64, n)
			for i := range buf {
				var bits uint64
				if err := read(&bits); err != nil {
					return fmt.Errorf("%w: adam moment: %v", ErrBadModelFile, err)
				}
				buf[i] = math.Float64frombits(bits)
			}
			dst[p] = buf
		}
	}
	o.step = int(step)
	o.m = m
	o.v = v
	return nil
}

// SerializedSize returns the byte size of the Save output without writing
// it anywhere.
func (n *Network) SerializedSize() int {
	size := 12 // magic + version + layer count
	for _, l := range n.Layers {
		switch layer := l.(type) {
		case *Dense:
			size += 4 + 8 // kind + shape
			size += 8 * (len(layer.W.Value.Data) + len(layer.B.Value.Data))
		default:
			size += 4
		}
	}
	return size
}
