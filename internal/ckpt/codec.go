package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// flushSize is the smallest chunk an Encoder hands to its writer before
// Close, and the most bytes a Decoder asks its reader for at once.
const flushSize = 4096

// Encoder writes the little-endian fields of a binary format. It owns a
// write buffer that reaches the underlying writer in chunks of at least
// flushSize bytes, and the rest on Close, so a multi-megabyte checkpoint
// written to a bare file costs about one write per 4 KB, not one per field.
// The first error sticks: later calls write nothing and Close reports it.
type Encoder struct {
	w   io.Writer
	buf []byte
	err error
}

// NewEncoder returns an Encoder that writes to w. Close must be called to
// flush the tail of the stream.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, buf: make([]byte, 0, flushSize+64)}
}

// Fail records err as the encoder's error unless one is already recorded.
func (e *Encoder) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Close flushes the buffered bytes and returns the first error.
func (e *Encoder) Close() error {
	e.flush()
	return e.err
}

func (e *Encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *Encoder) spill() {
	if len(e.buf) >= flushSize {
		e.flush()
	}
}

// U8 writes one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v); e.spill() }

// U16 writes a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v); e.spill() }

// U32 writes a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v); e.spill() }

// U64 writes a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v); e.spill() }

// F64 writes the IEEE-754 bits of v as a little-endian uint64.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool writes 1 for true and 0 for false.
func (e *Encoder) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	e.U8(b)
}

// Bytes writes b as is; the format writes its length first.
func (e *Encoder) Bytes(b []byte) { e.buf = append(e.buf, b...); e.spill() }

// F64s writes each value of v as F64 does.
func (e *Encoder) F64s(v []float64) {
	for _, x := range v {
		e.U64(math.Float64bits(x))
	}
}

// Decoder reads the little-endian fields of a binary format. It asks its
// reader for exactly the bytes of each field, so it never reads past the
// format's last byte and the next format in the stream can follow it. The
// first error sticks: later reads return zero values, and Err reports the
// error wrapped in the format's sentinel.
type Decoder struct {
	r       io.Reader
	bad     error
	section string
	err     error
	b       [8]byte
}

// NewDecoder returns a Decoder that reads from r and wraps its errors in
// bad, the format's sentinel.
func NewDecoder(r io.Reader, bad error) *Decoder { return &Decoder{r: r, bad: bad} }

// Err returns the first error, nil if every read and check so far passed.
func (d *Decoder) Err() error { return d.err }

// Section names the part of the stream read next; a read error names it.
func (d *Decoder) Section(name string) { d.section = name }

// Failf records a validation error, wrapped in the format's sentinel, unless
// an error is already recorded. It returns the first error, so a check that
// trips on the zero value of a failed read reports the read.
func (d *Decoder) Failf(format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{d.bad}, args...)...)
	}
	return d.err
}

// Nest wraps the errors of an embedded format in its sentinel bad as well
// as the enclosing format's, until the returned func restores the
// enclosing sentinel. A Decoder whose sentinel already is bad is left as is.
func (d *Decoder) Nest(bad error) (restore func()) {
	outer := d.bad
	if !errors.Is(outer, bad) {
		d.bad = fmt.Errorf("%w: %w", outer, bad)
	}
	return func() { d.bad = outer }
}

// full fills p from the reader, recording a read error. It reports whether
// p holds the bytes.
func (d *Decoder) full(p []byte) bool {
	if d.err != nil {
		return false
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = fmt.Errorf("%w: %s: %v", d.bad, d.section, err)
		return false
	}
	return true
}

// fixed reads n ≤ 8 bytes into the scratch array, zeroed on failure.
func (d *Decoder) fixed(n int) []byte {
	if !d.full(d.b[:n]) {
		clear(d.b[:])
	}
	return d.b[:n]
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 { return d.fixed(1)[0] }

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 { return binary.LittleEndian.Uint16(d.fixed(2)) }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 { return binary.LittleEndian.Uint32(d.fixed(4)) }

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 { return binary.LittleEndian.Uint64(d.fixed(8)) }

// F64 reads a float64 written by Encoder.F64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a byte written by Encoder.Bool; any value but 0 and 1 fails as
// a "bad <what> flag".
func (d *Decoder) Bool(what string) bool {
	v := d.U8()
	if v > 1 {
		d.Failf("bad %s flag %d", what, v)
	}
	return v == 1
}

// Bytes reads n raw bytes. The caller bounds n before the call.
func (d *Decoder) Bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	b := make([]byte, n)
	if !d.full(b) {
		return nil
	}
	return b
}

// F64s reads n values written by Encoder.F64s.
func (d *Decoder) F64s(n int) []float64 { return words[float64](d, n) }

// I64s reads n int64 values, each written as a little-endian uint64.
func (d *Decoder) I64s(n int) []int64 { return words[int64](d, n) }

// words reads n 8-byte words. It grows its result as the words arrive, so a
// count that claims more than the stream holds fails having allocated about
// twice what the stream supplied, not what the count claimed. It returns nil
// on error.
func words[T float64 | int64](d *Decoder, n int) []T {
	if d.err != nil {
		return nil
	}
	var buf [flushSize]byte
	out := make([]T, 0, min(n, len(buf)/8))
	for len(out) < n {
		if len(out) == cap(out) {
			grown := make([]T, len(out), min(n, 2*cap(out)))
			copy(grown, out)
			out = grown
		}
		k := min(cap(out)-len(out), len(buf)/8)
		if !d.full(buf[:8*k]) {
			return nil
		}
		switch dst := any(out[len(out) : len(out)+k]).(type) {
		case []float64:
			for i := range dst {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
			}
		case []int64:
			for i := range dst {
				dst[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
			}
		}
		out = out[:len(out)+k]
	}
	return out
}
