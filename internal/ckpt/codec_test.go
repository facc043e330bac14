package ckpt

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

// chunkWriter records the length of every Write it receives.
type chunkWriter struct{ sizes []int }

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Header(0x43544A4D, 3)
	e.U8(7)
	e.U16(0xBEEF)
	e.U32(1 << 30)
	e.U64(math.MaxUint64)
	e.F64(-0.5)
	e.Bool(true)
	e.Bytes([]byte("kind"))
	e.F64s([]float64{1, math.Inf(-1)})
	e.U64(uint64(1<<63 + 5))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8+1+2+4+8+8+1+4+16+8 {
		t.Fatalf("encoded %d bytes", buf.Len())
	}

	d := NewDecoder(bytes.NewReader(buf.Bytes()), errBad)
	d.Header(0x43544A4D, 3)
	if d.U8() != 7 || d.U16() != 0xBEEF || d.U32() != 1<<30 || d.U64() != math.MaxUint64 ||
		d.F64() != -0.5 || !d.Bool("test") || string(d.Bytes(4)) != "kind" {
		t.Fatal("scalars do not round-trip")
	}
	if f := d.F64s(2); len(f) != 2 || f[0] != 1 || !math.IsInf(f[1], -1) {
		t.Fatalf("F64s = %v", f)
	}
	if i := d.I64s(1); len(i) != 1 || i[0] != math.MinInt64+5 {
		t.Fatalf("I64s = %v", i)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestEncoderFlushesInChunks: the writer sees chunks of at least 4 KB, and
// the tail only on Close.
func TestEncoderFlushesInChunks(t *testing.T) {
	var w chunkWriter
	e := NewEncoder(&w)
	e.F64s(make([]float64, 3000)) // 24000 bytes
	if len(w.sizes) == 0 {
		t.Fatal("nothing flushed before Close")
	}
	before := len(w.sizes)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, n := range w.sizes {
		total += n
		if i < before && n < flushSize {
			t.Fatalf("write %d of %d bytes before Close", i, n)
		}
	}
	if total != 24000 || len(w.sizes) > 24000/flushSize+1 {
		t.Fatalf("%d writes of %d bytes in all: %v", len(w.sizes), total, w.sizes)
	}
}

// TestEncoderErrorSticks: the first error is reported by Close and nothing
// is written after it.
func TestEncoderErrorSticks(t *testing.T) {
	var w chunkWriter
	e := NewEncoder(&w)
	e.U32(1)
	first := errors.New("first")
	e.Fail(first)
	e.Fail(errors.New("second"))
	e.F64s(make([]float64, 2000))
	if err := e.Close(); err != first {
		t.Fatalf("Close = %v, want the first error", err)
	}
	if len(w.sizes) != 0 {
		t.Fatalf("wrote %v after the error", w.sizes)
	}
}

// TestDecoderStopsAtFormatEnd: a Decoder reads exactly its fields, so the
// bytes after them stay in the reader for the next format.
func TestDecoderStopsAtFormatEnd(t *testing.T) {
	r := bytes.NewReader([]byte{1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 'n', 'e', 'x', 't'})
	d := NewDecoder(r, errBad)
	if d.U32() != 1 || d.F64s(1) == nil || d.Err() != nil {
		t.Fatalf("decode failed: %v", d.Err())
	}
	if rest, _ := io.ReadAll(r); string(rest) != "next" {
		t.Fatalf("left %q in the reader", rest)
	}
}

// TestDecoderErrorSticks: after the first error every read returns a zero
// value, later checks keep the first error, and the error wraps the
// sentinel and names the section.
func TestDecoderErrorSticks(t *testing.T) {
	d := NewDecoder(bytes.NewReader([]byte{5, 0}), errBad)
	d.Section("counts")
	if d.U32() != 0 || d.U8() != 0 || d.F64s(3) != nil || d.Bytes(2) != nil {
		t.Fatal("reads after a short stream returned data")
	}
	err := d.Failf("implausible count")
	if !errors.Is(err, errBad) || !strings.Contains(err.Error(), "counts") || err != d.Err() {
		t.Fatalf("err = %v, want the first read error naming the section", err)
	}

	d = NewDecoder(bytes.NewReader([]byte{2}), errBad)
	if d.Bool("done"); !errors.Is(d.Err(), errBad) || !strings.Contains(d.Err().Error(), "bad done flag 2") {
		t.Fatalf("Bool(2): err = %v", d.Err())
	}
}

// TestDecoderNest: an embedded format's errors wrap its sentinel and the
// enclosing one; after restore the enclosing sentinel alone applies again.
func TestDecoderNest(t *testing.T) {
	errInner := errors.New("inner format")
	d := NewDecoder(bytes.NewReader(nil), errBad)
	restore := d.Nest(errInner)
	d.Failf("x")
	restore()
	if err := d.Err(); !errors.Is(err, errBad) || !errors.Is(err, errInner) {
		t.Fatalf("nested err = %v", err)
	}
	d = NewDecoder(bytes.NewReader(nil), errBad)
	d.Nest(errInner)()
	if err := d.Failf("y"); errors.Is(err, errInner) {
		t.Fatalf("restored decoder still wraps the inner sentinel: %v", err)
	}
	d = NewDecoder(bytes.NewReader(nil), errBad)
	d.Nest(errBad)
	if err := d.Failf("z"); err.Error() != "bad test stream: z" {
		t.Fatalf("nesting the same sentinel twice: %v", err)
	}
}

// TestF64sAllocatesWhatArrives: a count far beyond the stream fails having
// allocated about what the stream supplied.
func TestF64sAllocatesWhatArrives(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewDecoder(bytes.NewReader(make([]byte, 80)), errBad)
	if d.F64s(1<<24) != nil || d.I64s(1<<24) != nil {
		t.Fatal("a short stream was accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("a 1<<24 count over 80 bytes allocated %d bytes", got)
	}
}
