package experiments

import (
	"bytes"

	"ctjam/internal/core"
	"ctjam/internal/env"
)

// runTrain reproduces the §IV-B training report: train the DQN online,
// then report the transition count, model parameter count and serialized
// size (the paper: >120000 data blocks, 10664 floats, 42.7 KB).
func runTrain(o Options) (*Result, error) {
	cfg := env.DefaultConfig()
	cfg.Seed = o.Seed
	agent, err := core.NewTrainingDQNAgent(cfg, o.Seed, o.TrainSlots)
	if err != nil {
		return nil, err
	}
	trainEnv, err := env.New(cfg)
	if err != nil {
		return nil, err
	}
	avgReward, err := agent.Train(trainEnv, o.TrainSlots)
	if err != nil {
		return nil, err
	}

	var buf bytes.Buffer
	if err := agent.SaveModel(&buf); err != nil {
		return nil, err
	}

	evalEnv, err := env.New(cfg)
	if err != nil {
		return nil, err
	}
	c, err := env.Run(evalEnv, agent, o.Slots)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Title:  "DQN training statistics",
		XLabel: "quantity",
		YLabel: "value",
		XTicks: []string{
			"training transitions",
			"model parameters (floats)",
			"model size (KB)",
			"avg reward/slot",
			"post-training ST (%)",
		},
		PaperNote: "§IV-B: >120000 data blocks, model of 10664 floats in 42.7 KB; " +
			"§IV-C reports ~78% ST at the default parameters",
	}
	res.Series = append(res.Series, Series{
		Name: "measured",
		X:    []float64{0, 1, 2, 3, 4},
		Y: []float64{
			float64(o.TrainSlots),
			float64(agent.Network().ParamCount()),
			float64(buf.Len()) / 1024,
			avgReward,
			100 * c.ST(),
		},
	})
	return res, nil
}
