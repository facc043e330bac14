package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

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
	head, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("core: read checkpoint magic: %w", err)
	}
	if binary.LittleEndian.Uint32(head) == trainMagic {
		if _, err := readTrainingPrelude(br); err != nil {
			return nil, err
		}
	}
	return rl.ReadSnapshot(br)
}
