package ckpt

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
)

var errBad = errors.New("bad test stream")

func TestHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, 0x43545343, 7); err != nil {
		t.Fatal(err)
	}
	if want := []byte{'C', 'S', 'T', 'C', 7, 0, 0, 0}; !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("header bytes %v, want %v", buf.Bytes(), want)
	}
	br := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	if m, err := PeekMagic(br); err != nil || m != 0x43545343 {
		t.Fatalf("PeekMagic = %#x, %v", m, err)
	}
	if err := ReadHeader(br, 0x43545343, 7, errBad); err != nil {
		t.Fatalf("ReadHeader after peek: %v", err)
	}
}

func TestReadHeaderRejects(t *testing.T) {
	var good bytes.Buffer
	WriteHeader(&good, 0x43544A4D, 1)
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "header"},
		{"truncated version", good.Bytes()[:6], "header"},
		{"other magic", append([]byte("CTDQ"), 1, 0, 0, 0), "bad magic"},
		{"other version", append([]byte("MJTC"), 2, 0, 0, 0), "unsupported version 2"},
	} {
		err := ReadHeader(bytes.NewReader(tc.data), 0x43544A4D, 1, errBad)
		if !errors.Is(err, errBad) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %v naming %q", tc.name, err, errBad, tc.want)
		}
	}
	if _, err := PeekMagic(bufio.NewReader(bytes.NewReader([]byte{1, 2}))); err == nil {
		t.Error("PeekMagic accepted a 2-byte stream")
	}
}
