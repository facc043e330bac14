package ckpt

import (
	"bufio"
	"encoding/binary"
)

// Header writes the 8-byte header every binary format of the repo (CTJM,
// CTDQ, CTTC, CTSC) opens with: magic, then version, each a little-endian
// uint32.
func (e *Encoder) Header(magic, version uint32) {
	e.U32(magic)
	e.U32(version)
}

// Header reads a header written by Encoder.Header and checks it against
// magic and version; a mismatch fails naming a "bad magic" or an
// "unsupported version".
func (d *Decoder) Header(magic, version uint32) {
	d.Section("header")
	if got := d.U32(); got != magic {
		d.Failf("bad magic %#x", got)
	}
	if got := d.U32(); got != version {
		d.Failf("unsupported version %d", got)
	}
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
