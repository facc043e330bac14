package core

import (
	"bufio"
	"io"

	"ctjam/internal/ckpt"
	"ctjam/internal/rl"
)

// SnapshotFromCheckpoint reads an inference-only network snapshot from any of
// the repo's three on-disk formats: a bare network (CTJM, Policy.Save), a DQN
// learner state (CTDQ, rl SaveState) or a full training checkpoint (CTTC,
// SaveTraining). For CTTC it reads past the training prelude (cursor,
// history window, environment state) and snapshots the online network
// embedded in the learner state; optimizer moments and the replay buffer are
// never materialized. This is how ctjam-serve loads whatever artifact a
// training run left behind.
func SnapshotFromCheckpoint(r io.Reader) (*rl.Snapshot, error) {
	br := bufio.NewReader(r)
	// A stream too short to peek fails in rl.ReadSnapshot, as ErrBadCheckpoint.
	if magic, err := ckpt.PeekMagic(br); err == nil && magic == trainMagic {
		d := ckpt.NewDecoder(br, ErrBadTrainingCheckpoint)
		if readTrainingPrelude(d); d.Err() != nil {
			return nil, d.Err()
		}
	}
	return rl.ReadSnapshot(br)
}
