package iot

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"ctjam/internal/env"
	"ctjam/internal/fault"
	"ctjam/internal/jammer"
	"ctjam/internal/mac"
	"ctjam/internal/phy/zigbee"
	"ctjam/internal/rng"
)

// dataFrameSymbols returns the demodulated symbol stream of one full-size
// data frame, built once per process. Data packets are full-size frames
// (PacketAirtime is the 125-byte airtime); a deterministic payload keeps
// the receive path pure. Every cluster shares the slice read-only.
var dataFrameSymbols = sync.OnceValues(func() ([]uint8, error) {
	payload := make([]byte, zigbee.MaxPayload-zigbee.FCSLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	frame, err := zigbee.EncodeFrame(payload)
	if err != nil {
		return nil, fmt.Errorf("iot: build data frame: %w", err)
	}
	return zigbee.BytesToSymbols(frame), nil
})

// jamSpan is one continuous jamming emission on a channel block.
type jamSpan struct {
	start, end time.Duration
	block      int
	power      float64
}

// cluster is the sharded field engine's unit of work: one hub-and-spokes
// network on its own channel with its own jammer clock, RNG stream, CSMA
// arbiter, and fault stream. A run depends only on cfg — reset reseeds both
// generators in place and rebuilds everything else — which is what makes
// the engine's parallel execution bit-identical at any worker count and
// lets the engine reuse one cluster value for many runs. The single-network
// Simulator is a facade over one cluster.
//
// Not safe for concurrent use; the engine runs each cluster on exactly one
// worker at a time.
type cluster struct {
	cfg Config
	// src is the cluster stream (overheads and their timing jitter, jammer,
	// arbiter, first channel), seeded with cfg.Seed. agentSrc is the agent's
	// stream, seeded with cfg.Seed+0x5eed. Both streams are reseeded in
	// place every run and stream exactly like rand.NewSource.
	src      *rng.Source
	agentSrc *rng.Source
	jam      jammer.Strategy
	// jamBuilt is what jam was built from; reset rewinds jam in place
	// while the next run asks for the same jammer.
	jamBuilt jamBuild

	now         time.Duration
	nextJamSlot time.Duration
	spans       []jamSpan
	arbiter     *mac.Arbiter
	slotIdx     int

	// wheel indexes the slot's strong co-block emissions: the fixed-service
	// schedule counts the packets each one kills in closed form, and the
	// CSMA packet loop asks it per packet with a monotone cursor.
	wheel slotWheel

	// frameSymbols is the demodulated symbol stream of one full-size data
	// frame, set at reset when fault injection is configured; pktIdx
	// is the monotone packet counter seeding per-packet symbol corruption.
	// symScratch/byteScratch are the pooled receive-path buffers reused
	// across packet deliveries.
	frameSymbols []uint8
	pktIdx       int64
	symScratch   []uint8
	byteScratch  []byte

	// flt is runSlot's scratch for the slot's injected faults.
	flt fault.Slot
}

// jamBuild records the arguments a cluster's jammer was built with. The
// generator is not among them: a cluster value makes its rng once and
// builds every jammer on it.
type jamBuild struct {
	spec            string
	channels, width int
	powers          []float64
	mode            jammer.PowerMode
}

// matches reports whether a strategy built from b is the one cfg asks for.
func (b *jamBuild) matches(cfg *Config) bool {
	return b.spec == cfg.Jammer && b.channels == cfg.Channels && b.width == cfg.SweepWidth &&
		b.mode == cfg.JammerMode && slices.Equal(b.powers, cfg.JamPowers)
}

// newCluster validates cfg and builds a ready-to-run cluster.
func newCluster(cfg Config) (*cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &cluster{cfg: cfg}
	if err := c.reset(); err != nil {
		return nil, err
	}
	return c, nil
}

// reset rewinds the cluster to slot 0. The RNG order here is load-bearing:
// seed the cluster RNG first, then build the sweeper and the arbiter from
// it, exactly as the original Simulator did, so goldens pinned against the
// pre-sharding code reproduce bit-for-bit.
func (c *cluster) reset() error {
	if c.src == nil {
		c.src = rng.NewSource(c.cfg.Seed)
	} else {
		c.src.Seed(c.cfg.Seed)
	}
	c.now = 0
	c.nextJamSlot = 0
	c.spans = c.spans[:0] // keep capacity across resets
	c.slotIdx = 0
	c.pktIdx = 0
	c.frameSymbols = nil
	if c.cfg.Faults != nil {
		syms, err := dataFrameSymbols()
		if err != nil {
			return err
		}
		c.frameSymbols = syms
	}
	switch {
	case !c.cfg.JammerEnabled:
		c.jam = nil
	case c.jam != nil && c.jamBuilt.matches(&c.cfg):
		// Construction draws nothing from the RNG, so rewinding the
		// strategy built for an earlier run equals building it afresh.
		c.jam.Reset()
	default:
		jam, err := jammer.New(c.cfg.Jammer, c.cfg.Channels, c.cfg.SweepWidth, c.cfg.JamPowers, c.cfg.JammerMode, c.src)
		if err != nil {
			return fmt.Errorf("iot: build jammer: %w", err)
		}
		c.jam = jam
		c.jamBuilt = jamBuild{
			spec:     c.cfg.Jammer,
			channels: c.cfg.Channels,
			width:    c.cfg.SweepWidth,
			powers:   append(c.jamBuilt.powers[:0], c.cfg.JamPowers...),
			mode:     c.cfg.JammerMode,
		}
	}
	c.arbiter = nil
	if c.cfg.UseCSMA {
		arb, err := mac.NewArbiter(c.cfg.Nodes, mac.DefaultParams(), c.src)
		if err != nil {
			return fmt.Errorf("iot: build csma arbiter: %w", err)
		}
		c.arbiter = arb
	}
	return nil
}

// advanceJammer processes jammer slot boundaries up to horizon, recording
// emission spans. The jammer senses the victim's current data channel at
// each of its own slot starts. Spans are appended in start order and the
// trim preserves it, so the slice stays sorted — the slot wheel relies on
// that.
func (c *cluster) advanceJammer(victimChannel int, horizon time.Duration) error {
	if c.jam == nil {
		return nil
	}
	for c.nextJamSlot < horizon {
		jammed, power, err := c.jam.Step(victimChannel)
		if err != nil {
			return err
		}
		if jammed {
			// A jammed slot means the emission covers the victim's block,
			// whatever the strategy (for the sweeper this equals its locked
			// block).
			block := victimChannel / c.cfg.SweepWidth
			c.spans = append(c.spans, jamSpan{
				start: c.nextJamSlot,
				end:   c.nextJamSlot + c.cfg.JammerSlot,
				block: block,
				power: power,
			})
		}
		c.nextJamSlot += c.cfg.JammerSlot
	}
	// Trim spans that ended before the current slot to bound memory; the
	// backing array is reused across slots.
	keep := c.spans[:0]
	for _, sp := range c.spans {
		if sp.end > c.now {
			keep = append(keep, sp)
		}
	}
	c.spans = keep
	return nil
}

// overlap returns the duration of [a0,a1) ∩ [b0,b1).
func overlap(a0, a1, b0, b1 time.Duration) time.Duration {
	lo, hi := a0, a1
	if b0 > lo {
		lo = b0
	}
	if b1 < hi {
		hi = b1
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// runSlot simulates one Tx slot on the given channel and power index and
// writes its statistics into stats, which the caller reuses across slots.
// hopped marks a channel change decided at the slot boundary.
func (c *cluster) runSlot(stats *SlotStats, channel, power int, hopped bool) error {
	if channel < 0 || channel >= c.cfg.Channels {
		return fmt.Errorf("iot: channel %d out of range", channel)
	}
	if power < 0 || power >= len(c.cfg.TxPowers) {
		return fmt.Errorf("iot: power index %d out of range", power)
	}
	slotStart := c.now
	slotEnd := slotStart + c.cfg.SlotDuration

	// Injected faults for this slot: clock drift stretches every timed
	// operation, burst noise acts as a whole-slot co-channel emission, and
	// ACK loss voids the slot's deliveries.
	var flt fault.Slot
	if c.cfg.Faults != nil {
		// Apply takes a pointer through an interface, so it fills the
		// cluster's scratch rather than a local that would escape.
		c.flt = fault.Slot{}
		c.cfg.Faults.Apply(int64(c.slotIdx), &c.flt)
		flt = c.flt
	}
	drift := 1 + flt.ClockDrift
	if drift < 0.5 {
		drift = 0.5
	}
	stretch := func(d time.Duration) time.Duration {
		if drift == 1 {
			return d
		}
		return time.Duration(float64(d) * drift)
	}

	// Phase 1: policy inference + polling-mode FH/PC negotiation.
	tm := &c.cfg.Timing
	overheadDur := tm.sample(tm.DQNDecision, c.src)
	for n := 0; n < c.cfg.Nodes; n++ {
		overheadDur += tm.sample(tm.PollPerNode, c.src)
		if c.src.Float64() < tm.OffChannelProb {
			overheadDur += tm.sampleRecovery(c.src)
		}
	}
	overheadDur = stretch(overheadDur)
	if overheadDur > c.cfg.SlotDuration {
		overheadDur = c.cfg.SlotDuration
	}
	dataStart := slotStart + overheadDur

	// Drive the jammer across this slot.
	if err := c.advanceJammer(channel, slotEnd); err != nil {
		return err
	}

	victimBlock := channel / c.cfg.SweepWidth
	txPower := c.cfg.TxPowers[power]
	c.wheel.build(c.spans, victimBlock, txPower)

	// Phase 2: data exchange under LBT / CSMA-CA.
	fixedService := stretch(tm.PacketServiceTime())
	air := stretch(tm.LBT + tm.PacketAirtime)
	tail := stretch(tm.AckRTT + tm.Processing)
	*stats = SlotStats{
		Overhead: overheadDur,
		DataTime: slotEnd - dataStart,
		Hopped:   hopped,
	}
	if c.arbiter == nil {
		c.fixedData(stats, flt, dataStart, slotEnd, fixedService, tail, txPower)
	} else {
		c.csmaData(stats, flt, dataStart, slotEnd, air, tail, txPower)
	}
	if flt.AckLoss {
		// The ACK channel is out for this slot: packets may have reached
		// the hub, but none count as delivered.
		stats.Delivered = 0
	}

	// Classify the slot like the MDP's states. Burst noise occupies the
	// victim's channel for the whole data phase.
	var coChannel, strong time.Duration
	for _, sp := range c.spans {
		if sp.block != victimBlock {
			continue
		}
		o := overlap(dataStart, slotEnd, sp.start, sp.end)
		if o == 0 {
			continue
		}
		coChannel += o
		if sp.power > txPower {
			strong += o
		}
	}
	if flt.NoisePower > 0 {
		if stats.DataTime > coChannel {
			coChannel = stats.DataTime
		}
		if flt.NoisePower > txPower && stats.DataTime > strong {
			strong = stats.DataTime
		}
	}
	switch {
	case stats.DataTime > 0 && strong*2 > stats.DataTime:
		stats.Outcome = env.OutcomeJammed
	case coChannel > 0:
		stats.Outcome = env.OutcomeJammedSurvived
	default:
		stats.Outcome = env.OutcomeSuccess
	}
	if flt.AckLoss && stats.Outcome != env.OutcomeJammed {
		// Without ACKs the hub observes the slot as lost, like env.Step.
		stats.Outcome = env.OutcomeJammed
	}
	if stats.DataTime > 0 {
		stats.Utilization = float64(stats.DataTime) / float64(c.cfg.SlotDuration)
	}

	c.now = slotEnd
	c.slotIdx++
	return nil
}

// fixedData resolves the data phase when every packet costs the same
// service time s: packet k starts at dataStart+k·s, is on air over its
// first s−tail, and fits when it ends by slotEnd. The wheel counts the
// packets a strong emission kills in closed form, so the phase costs
// O(emissions) rather than O(packets). Packets that survive the channel
// under symbol faults still pass through the receive path one by one:
// deliverFrame depends on nothing but the running packet index, so calling
// it once per survivor, in order, reproduces the per-packet walk exactly.
func (c *cluster) fixedData(st *SlotStats, flt fault.Slot, dataStart, slotEnd, s, tail time.Duration, txPower float64) {
	n := int((slotEnd - dataStart) / s)
	st.Attempted = n
	if flt.NoisePower > txPower {
		return // the whole-slot burst kills every packet
	}
	survivors := n - c.wheel.killed(dataStart, s, s-tail, n)
	if flt.DropSymbols == 0 && flt.FlipProb == 0 {
		st.Delivered = survivors
		return
	}
	for i := 0; i < survivors; i++ {
		if c.deliverFrame(flt) {
			st.Delivered++
		} else {
			st.FrameLosses++
		}
	}
}

// csmaData resolves the data phase packet by packet under the CSMA/CA
// arbiter, whose per-packet access delays and collisions vary the service
// time.
func (c *cluster) csmaData(st *SlotStats, flt fault.Slot, dataStart, slotEnd, air, tail time.Duration, txPower float64) {
	for t := dataStart; ; {
		out, err := c.arbiter.NextTransmission()
		if err != nil {
			// Retry-limit exhaustion: the slot time is burnt without a
			// transmission.
			t += time.Duration(mac.DefaultParams().MaxRetries) * air
			continue
		}
		// Collided attempts waste a frame airtime each.
		service := out.AccessDelay +
			time.Duration(out.Collisions)*air +
			c.cfg.Timing.PacketAirtime + tail
		if t+service > slotEnd {
			break
		}
		st.Attempted++
		lost := flt.NoisePower > txPower
		if !lost && c.wheel.hits(t, t+service-tail) {
			lost = true
		}
		if !lost && (flt.DropSymbols > 0 || flt.FlipProb > 0) {
			// The packet survived the channel; push it through the ZigBee
			// receive path under the slot's symbol faults.
			if !c.deliverFrame(flt) {
				lost = true
				st.FrameLosses++
			}
		}
		if !lost {
			st.Delivered++
		}
		t += service
	}
}

// deliverFrame demodulates one corrupted copy of the precomputed data frame
// and reports whether the receiver recovered it. Corruption is a pure
// function of (config seed, packet index), so runs stay bit-reproducible.
// The symbol and byte buffers are pooled across deliveries: a faulted
// cluster at steady state allocates nothing per packet.
func (c *cluster) deliverFrame(flt fault.Slot) bool {
	c.symScratch = fault.CorruptSymbolsInto(c.symScratch, flt, c.cfg.Seed, c.pktIdx, c.frameSymbols)
	c.pktIdx++
	raw, err := zigbee.SymbolsToBytesInto(c.byteScratch, c.symScratch)
	if err != nil {
		return false
	}
	c.byteScratch = raw
	return zigbee.CheckFrame(raw) == nil
}

// runAccum accumulates one cluster's per-slot statistics into RunStats for
// cluster.run, the one slot loop behind both Simulator.Run and Engine.Run.
type runAccum struct {
	run        RunStats
	sumUtil    float64
	sumOverhd  time.Duration
	prevJammed bool
}

// add folds one resolved slot into the accumulator.
func (a *runAccum) add(cfg *Config, d env.Decision, st *SlotStats, hopped bool) {
	a.run.Slots++
	a.run.Attempted += st.Attempted
	a.run.Delivered += st.Delivered
	a.run.FrameLosses += st.FrameLosses
	a.sumUtil += st.Utilization
	a.sumOverhd += st.Overhead

	a.run.Counters.Slots++
	if st.Outcome.Succeeded() {
		a.run.Counters.Successes++
	} else {
		a.run.Counters.JamLosses++
	}
	if st.Outcome != env.OutcomeSuccess {
		a.run.Counters.JammedSlots++
	}
	if hopped {
		a.run.Counters.Hops++
		if a.prevJammed && st.Outcome.Succeeded() {
			a.run.Counters.UsefulHops++
		}
	}
	if d.Power > 0 {
		a.run.Counters.PCSlots++
		if st.Outcome == env.OutcomeJammedSurvived && cfg.TxPowers[0] < cfg.TxPowers[d.Power] {
			a.run.Counters.UsefulPCs++
		}
	}
	a.prevJammed = st.Outcome == env.OutcomeJammed
}

// finish computes the derived run metrics.
func (a *runAccum) finish() RunStats {
	a.run.GoodputPktsPerSlot = float64(a.run.Delivered) / float64(a.run.Slots)
	a.run.MeanUtilization = a.sumUtil / float64(a.run.Slots)
	a.run.MeanOverhead = a.sumOverhd / time.Duration(a.run.Slots)
	return a.run
}

// run drives an anti-jamming agent through the cluster for the given number
// of Tx slots.
func (c *cluster) run(agent env.Agent, slots int) (RunStats, error) {
	if slots <= 0 {
		return RunStats{}, fmt.Errorf("iot: slots %d must be positive", slots)
	}
	if err := c.reset(); err != nil {
		return RunStats{}, err
	}
	if c.agentSrc == nil {
		c.agentSrc = rng.NewSource(c.cfg.Seed + 0x5eed)
	} else {
		c.agentSrc.Seed(c.cfg.Seed + 0x5eed)
	}
	agent.Reset(c.agentSrc)

	var acc runAccum
	var st SlotStats
	prev := env.SlotInfo{First: true, Channel: c.src.Intn(c.cfg.Channels)}
	for i := 0; i < slots; i++ {
		d := agent.Decide(prev)
		if d.Channel < 0 || d.Channel >= c.cfg.Channels || d.Power < 0 || d.Power >= len(c.cfg.TxPowers) {
			return RunStats{}, fmt.Errorf("iot: agent %s returned invalid decision %+v", agent.Name(), d)
		}
		hopped := !prev.First && d.Channel != prev.Channel
		if err := c.runSlot(&st, d.Channel, d.Power, hopped); err != nil {
			return RunStats{}, err
		}
		acc.add(&c.cfg, d, &st, hopped)
		prev = env.SlotInfo{
			Slot:    i + 1,
			Channel: d.Channel,
			Power:   d.Power,
			Outcome: st.Outcome,
			Hopped:  hopped,
		}
	}
	return acc.finish(), nil
}
