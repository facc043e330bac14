package nn

import (
	"errors"
	"fmt"
	"io"

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
	e := ckpt.NewEncoder(w)
	n.Encode(e)
	return e.Close()
}

// Encode writes the network's CTJM stream into e, for Save and for the
// formats that embed a network.
func (n *Network) Encode(e *ckpt.Encoder) {
	e.Header(modelMagic, modelVersion)
	e.U32(uint32(len(n.Layers)))
	for _, l := range n.Layers {
		switch layer := l.(type) {
		case *Dense:
			e.U32(layerKindDense)
			e.U32(uint32(layer.W.Value.Rows))
			e.U32(uint32(layer.W.Value.Cols))
			e.F64s(layer.W.Value.Data)
			e.F64s(layer.B.Value.Data)
		case *ReLU:
			e.U32(layerKindReLU)
		default:
			e.Fail(fmt.Errorf("nn: cannot serialize layer type %T", l))
		}
	}
}

// Load reads a network saved with Save.
func Load(r io.Reader) (*Network, error) {
	d := ckpt.NewDecoder(r, ErrBadModelFile)
	net := Decode(d)
	return net, d.Err()
}

// Decode reads a CTJM stream from d, for Load and for the formats that embed
// a network. It returns nil once d holds an error; the error wraps
// ErrBadModelFile as well as the sentinel d was made with.
func Decode(d *ckpt.Decoder) *Network {
	defer d.Nest(ErrBadModelFile)()
	d.Header(modelMagic, modelVersion)
	d.Section("layers")
	nLayers := d.U32()
	if nLayers > 1024 {
		d.Failf("implausible layer count %d", nLayers)
	}
	net := &Network{}
	for li := uint32(0); li < nLayers && d.Err() == nil; li++ {
		switch kind := d.U32(); kind {
		case layerKindDense:
			rows, cols := d.U32(), d.U32()
			// Bound the product, not just each dimension: two in-range
			// dimensions can still multiply to a terabyte-scale allocation.
			if rows == 0 || cols == 0 || uint64(rows)*uint64(cols) > 1<<24 {
				d.Failf("implausible dense shape %dx%d", rows, cols)
				break
			}
			w := d.F64s(int(rows) * int(cols))
			b := d.F64s(int(cols))
			if d.Err() != nil {
				break
			}
			net.Layers = append(net.Layers, &Dense{
				W: &Param{Value: &Matrix{Rows: int(rows), Cols: int(cols), Data: w}, Grad: NewMatrix(int(rows), int(cols))},
				B: &Param{Value: &Matrix{Rows: 1, Cols: int(cols), Data: b}, Grad: NewMatrix(1, int(cols))},
			})
		case layerKindReLU:
			net.Layers = append(net.Layers, &ReLU{})
		default:
			d.Failf("unknown layer kind %d", kind)
		}
	}
	if d.Err() != nil {
		return nil
	}
	return net
}

// SaveAdam writes an Adam optimizer's mutable state (step counter and first/
// second moment estimates) for the given parameter list into e. The encoding
// is order-sensitive: LoadAdam must be called with the same parameters in
// the same order, which Network.Params guarantees for an unchanged
// architecture.
func (o *Adam) SaveAdam(e *ckpt.Encoder, params []*Param) {
	e.U64(uint64(o.step))
	e.U32(uint32(len(params)))
	for _, p := range params {
		n := len(p.Value.Data)
		e.U32(uint32(n))
		for _, moments := range [2]map[*Param][]float64{o.m, o.v} {
			if buf := moments[p]; buf != nil {
				e.F64s(buf[:n])
				continue
			}
			for i := 0; i < n; i++ { // nil before the first Step: encode zeros
				e.U64(0)
			}
		}
	}
}

// LoadAdam restores state written by SaveAdam into o, keyed to params (same
// list, same order as at save time). On any error o is left unchanged and
// the error is d's.
func (o *Adam) LoadAdam(d *ckpt.Decoder, params []*Param) error {
	d.Section("adam")
	step := d.U64()
	if step > 1<<40 {
		return d.Failf("implausible adam step %d", step)
	}
	if nParams := d.U32(); int(nParams) != len(params) {
		return d.Failf("adam state has %d params, want %d", nParams, len(params))
	}
	m := make(map[*Param][]float64, len(params))
	v := make(map[*Param][]float64, len(params))
	for _, p := range params {
		if n := d.U32(); int(n) != len(p.Value.Data) {
			return d.Failf("adam moment has %d values, param has %d", n, len(p.Value.Data))
		}
		m[p] = d.F64s(len(p.Value.Data))
		v[p] = d.F64s(len(p.Value.Data))
	}
	if err := d.Err(); err != nil {
		return err
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
