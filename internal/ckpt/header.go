package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// WriteHeader writes the 8-byte header every binary format of the repo
// (CTJM, CTDQ, CTTC, CTSC) opens with: magic, then version, each a
// little-endian uint32.
func WriteHeader(w io.Writer, magic, version uint32) error {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], magic)
	binary.LittleEndian.PutUint32(b[4:], version)
	_, err := w.Write(b[:])
	return err
}

// ReadHeader reads a header written by WriteHeader and checks it against
// magic and version. Its errors wrap bad, the caller's format sentinel, and
// name a "bad magic" or an "unsupported version".
func ReadHeader(r io.Reader, magic, version uint32, bad error) error {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("%w: header: %v", bad, err)
	}
	if got := binary.LittleEndian.Uint32(b[:4]); got != magic {
		return fmt.Errorf("%w: bad magic %#x", bad, got)
	}
	if got := binary.LittleEndian.Uint32(b[4:]); got != version {
		return fmt.Errorf("%w: unsupported version %d", bad, got)
	}
	return nil
}

// PeekMagic returns the magic opening br without consuming it, so a reader
// of several formats can pick its parser.
func PeekMagic(br *bufio.Reader) (uint32, error) {
	head, err := br.Peek(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(head), nil
}
