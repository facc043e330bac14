package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// fuzzModel is a small valid CTJM model: Dense 3x5, ReLU, Dense 5x2.
func fuzzModel(tb testing.TB) []byte {
	tb.Helper()
	net, err := NewMLP([]int{3, 5, 2}, rand.New(rand.NewSource(4)))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// oversizedHeader is a CTJM header for one dense layer of the given shape
// with no parameters after it.
func oversizedHeader(rows, cols uint32) []byte {
	var buf []byte
	for _, v := range []uint32{modelMagic, modelVersion, 1, layerKindDense, rows, cols} {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	return buf
}

// FuzzNetworkLoad feeds arbitrary bytes to the CTJM model decoder, which
// reads untrusted files (models travel to devices and into ctjam-serve). It
// must never panic: every input either fails with ErrBadModelFile or decodes
// into a network that saves back to exactly the bytes it consumed.
func FuzzNetworkLoad(f *testing.F) {
	valid := fuzzModel(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:12])           // header and layer count only
	f.Add(valid[:len(valid)/2]) // cut inside the first layer's weights
	f.Add(valid[:len(valid)-1]) // one byte short
	f.Add(oversizedHeader(1<<12, 1<<12))
	f.Add(oversizedHeader(1<<31, 2))
	f.Add(oversizedHeader(0xffffffff, 0xffffffff))

	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadModelFile) {
				t.Fatalf("rejected with %v, want an ErrBadModelFile", err)
			}
			return
		}
		var out bytes.Buffer
		if err := net.Save(&out); err != nil {
			t.Fatalf("save after an accepted load: %v", err)
		}
		if n := out.Len(); n > len(data) || !bytes.Equal(out.Bytes(), data[:n]) {
			t.Fatalf("accepted %d bytes re-save to %d different bytes", len(data), n)
		}
		if net.SerializedSize() != out.Len() {
			t.Fatalf("SerializedSize %d, Save wrote %d", net.SerializedSize(), out.Len())
		}
	})
}

// TestLoadOversizedHeaderAllocatesLittle: a 24-byte header claiming a
// 4096x4096 layer (128 MB of weights) must fail having allocated about what
// the stream supplied, not what the header claimed.
func TestLoadOversizedHeaderAllocatesLittle(t *testing.T) {
	data := oversizedHeader(1<<12, 1<<12)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadModelFile) {
		t.Fatalf("oversized header: err %v, want ErrBadModelFile", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("rejecting a %d-byte header allocated %d bytes", len(data), got)
	}
}
