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
	e := NewEncoder(&buf)
	e.Header(0x43545343, 7)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []byte{'C', 'S', 'T', 'C', 7, 0, 0, 0}; !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("header bytes %v, want %v", buf.Bytes(), want)
	}
	br := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	if m, err := PeekMagic(br); err != nil || m != 0x43545343 {
		t.Fatalf("PeekMagic = %#x, %v", m, err)
	}
	d := NewDecoder(br, errBad)
	if d.Header(0x43545343, 7); d.Err() != nil {
		t.Fatalf("Header after peek: %v", d.Err())
	}
}

func TestReadHeaderRejects(t *testing.T) {
	var good bytes.Buffer
	e := NewEncoder(&good)
	e.Header(0x43544A4D, 1)
	e.Close()
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
		d := NewDecoder(bytes.NewReader(tc.data), errBad)
		d.Header(0x43544A4D, 1)
		err := d.Err()
		if !errors.Is(err, errBad) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %v naming %q", tc.name, err, errBad, tc.want)
		}
	}
	if _, err := PeekMagic(bufio.NewReader(bytes.NewReader([]byte{1, 2}))); err == nil {
		t.Error("PeekMagic accepted a 2-byte stream")
	}
}
