// Package ckpt manages generational checkpoint directories: numbered
// snapshot files (ckpt-000123.ctdq, named by training slot) with a
// keep-newest-N retention policy. Writers drop a new generation after each
// checkpoint interval and GC the oldest beyond the retention count; resume
// scans newest-to-oldest so a corrupt latest generation falls back to the
// previous one instead of aborting the run. It also owns the magic + version
// header every binary checkpoint format opens with (header.go).
package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	prefix = "ckpt-"
	suffix = ".ctdq"
)

// Path names the checkpoint file for a training slot inside dir. Slots are
// zero-padded to six digits so lexical and numeric order agree for typical
// budgets.
func Path(dir string, slot int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%06d%s", prefix, slot, suffix))
}

// Entry is one discovered checkpoint generation.
type Entry struct {
	// Slot is the training slot the checkpoint was written at.
	Slot int
	// Path is the checkpoint file path.
	Path string
}

// List returns the checkpoint generations in dir sorted by slot ascending
// (newest last). A missing directory is an empty list, not an error; files
// that do not match the ckpt-NNNNNN.ctdq pattern are ignored.
func List(dir string) ([]Entry, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []Entry
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		slot, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix))
		if err != nil || slot < 0 {
			continue
		}
		out = append(out, Entry{Slot: slot, Path: filepath.Join(dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out, nil
}

// GC removes the oldest generations beyond keep, returning the removed
// paths.
func GC(dir string, keep int) ([]string, error) {
	if keep <= 0 {
		return nil, fmt.Errorf("ckpt: keep %d must be positive", keep)
	}
	entries, err := List(dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for len(entries) > keep {
		e := entries[0]
		if err := os.Remove(e.Path); err != nil {
			return removed, err
		}
		removed = append(removed, e.Path)
		entries = entries[1:]
	}
	return removed, nil
}
