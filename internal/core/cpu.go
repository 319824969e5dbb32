package core

// This file puts the §3.3 CPU guarantee on the stream plane: each
// serving node owns a Nemesis kernel, and every admitted stream holds a
// per-stream protocol-processing domain there under an EDF {slice,
// period} contract derived from the stream's rate. The paper's QoS manager hands out processor time "on
// the same footing" as network and disk bandwidth; NodeCPU is that
// footing — OpenSession charges it in the same atomic conjunction as
// the link and disk budgets, and Renegotiate/Degrade/Restore reshape
// the CPU contract exactly as they reshape the other two.

import (
	"fmt"

	"repro/internal/nemesis"
	"repro/internal/sched"
	"repro/internal/sim"
)

// CPUConfig parameterises a node's protocol-processing CPU.
type CPUConfig struct {
	// Cap is the admittable utilisation fraction (default 0.9); the
	// remainder absorbs context-switch overhead and feeds slack time.
	Cap float64
	// SwitchCost is the kernel context-switch cost (default 1 µs).
	SwitchCost sim.Duration
	// PerFrame is the fixed protocol cost charged per frame — header
	// processing, descriptor handling — independent of frame size
	// (default 20 µs).
	PerFrame sim.Duration
	// BytesPerSec is the CPU's protocol-processing throughput: how many
	// payload bytes per second it can checksum/fragment at full
	// utilisation (default 400 MiB/s). Lower it to model a CPU-bound
	// node whose processor, not its disks, is the scarce resource.
	BytesPerSec int64
}

func (c *CPUConfig) setDefaults() {
	if c.Cap == 0 {
		c.Cap = 0.9
	}
	if c.SwitchCost == 0 {
		c.SwitchCost = sim.Microsecond
	}
	if c.PerFrame == 0 {
		c.PerFrame = 20 * sim.Microsecond
	}
	if c.BytesPerSec == 0 {
		c.BytesPerSec = 400 << 20
	}
}

// CPUStats counts stream-plane activity on one node CPU.
type CPUStats struct {
	Admitted int64 // stream domains admitted
	Refused  int64 // stream admissions refused for lack of CPU
	Released int64 // stream domains torn down
	Reshaped int64 // in-place contract renegotiations that took effect

	// DeadlineMisses counts periods in which a stream domain's protocol
	// work finished after its EDF deadline — zero for every admitted
	// stream under a correct admission bound.
	DeadlineMisses int64
}

// NodeCPU is one node's protocol-processing CPU: a Nemesis kernel under
// EDF-over-shares with the QoS manager on top, plus the stream-plane
// admission surface (CanServe/AdmitStream) that mirrors
// netsig.Manager and fileserver.CMService on the third resource.
type NodeCPU struct {
	// Kernel is the node's Nemesis instance; stream domains are spawned
	// into it and non-stream domains may share it.
	Kernel *nemesis.Kernel
	// EDF is the installed EDF-over-shares scheduling policy.
	EDF *sched.EDFShares
	// QoS is the manager that owns the utilisation cap; stream
	// contracts are admitted as pinned reservations through it.
	QoS *sched.QoSManager

	cfg CPUConfig

	// Stats counts admissions, refusals, reshapes and deadline misses.
	Stats CPUStats
}

// NewNodeCPU builds a protocol-processing CPU on the given simulator.
func NewNodeCPU(s *sim.Sim, cfg CPUConfig) *NodeCPU {
	cfg.setDefaults()
	edf := sched.NewEDFShares()
	k := nemesis.NewKernel(s, nemesis.Config{
		SwitchCost:         cfg.SwitchCost,
		SingleAddressSpace: true,
	}, edf)
	qos := sched.NewQoSManager(s, edf)
	qos.Cap = cfg.Cap
	return &NodeCPU{Kernel: k, EDF: edf, QoS: qos, cfg: cfg}
}

// Config returns the CPU's cost model.
func (cpu *NodeCPU) Config() CPUConfig { return cpu.cfg }

// StreamWork reports the per-period CPU time a stream serving
// frameBytes per frame charges: the fixed per-frame protocol cost plus
// the payload's share of the node's processing throughput. This is the
// slice of the stream's EDF contract, so CPU cost scales with the
// served tier — degrading a session really frees processor time.
func (cpu *NodeCPU) StreamWork(frameBytes int) sim.Duration {
	w := cpu.cfg.PerFrame +
		sim.Duration(int64(frameBytes)*int64(sim.Second)/cpu.cfg.BytesPerSec)
	if w < 1 {
		w = 1
	}
	return w
}

// CanServe reports whether AdmitStream would accept a stream at
// frameBytes × frameHz right now — the pure admission probe, holding
// nothing, that replica selection and site-level checks use.
func (cpu *NodeCPU) CanServe(frameBytes, frameHz int) bool {
	if frameHz <= 0 {
		return false
	}
	return cpu.QoS.CanReserve(cpu.StreamWork(frameBytes), sim.Second/sim.Duration(frameHz))
}

// CommittedFrac reports the fraction of the admittable utilisation cap
// currently reserved by stream domains — the CPU column of a node's
// least-committed score. It reads the QoS manager's live Cap (the
// public knob admission itself checks), not the construction-time
// config, so retuning the cap keeps score and admission in agreement.
func (cpu *NodeCPU) CommittedFrac() float64 {
	if cpu.QoS.Cap <= 0 {
		return 0
	}
	return cpu.QoS.ReservedUtilization() / cpu.QoS.Cap
}

// StreamDomain is one admitted stream's protocol-processing domain: a
// pinned EDF reservation plus the periodic loop that spends it. It is
// owned by the admitting session and dies with it.
type StreamDomain struct {
	cpu    *NodeCPU
	d      *nemesis.Domain
	period sim.Duration
	work   sim.Duration // per-period cost at the current tier

	released bool

	// Misses counts this stream's EDF deadline overruns.
	Misses int64
}

// AdmitStream reserves CPU for one stream's protocol processing and
// spawns its domain: slice = StreamWork(frameBytes) per period =
// 1/frameHz. It refuses (sched.ErrOverCommit) when the cap is already
// reserved — the CPU half of end-to-end admission — and a refusal
// holds nothing.
func (cpu *NodeCPU) AdmitStream(name string, frameBytes, frameHz int) (*StreamDomain, error) {
	if frameHz <= 0 {
		return nil, fmt.Errorf("core: stream CPU contract needs a positive frame rate, got %d", frameHz)
	}
	work := cpu.StreamWork(frameBytes)
	period := sim.Second / sim.Duration(frameHz)
	if !cpu.QoS.CanReserve(work, period) {
		cpu.Stats.Refused++
		return nil, fmt.Errorf("%w: %s needs %v/%v, %.3f of %.3f reserved",
			sched.ErrOverCommit, name, work, period,
			cpu.QoS.ReservedUtilization(), cpu.QoS.Cap)
	}
	sd := &StreamDomain{cpu: cpu, period: period, work: work}
	sd.d = cpu.Kernel.Spawn(name, nemesis.SchedParams{Slice: work, Period: period}, sd.run)
	if err := cpu.QoS.Reserve(sd.d, work, period); err != nil {
		// CanReserve said yes an instant ago and nothing ran in between.
		cpu.Kernel.Kill(sd.d)
		cpu.Stats.Refused++
		return nil, err
	}
	cpu.Stats.Admitted++
	return sd, nil
}

// run is the domain body: every period, burn the current tier's
// protocol-processing cost and account an EDF deadline miss if the
// work finished after the period's end. The loop runs until the
// session kills the domain.
func (sd *StreamDomain) run(c *nemesis.Ctx) {
	next := c.Now() + sd.period
	for {
		c.Consume(sd.work)
		now := c.Now()
		if now > next {
			sd.Misses++
			sd.cpu.Stats.DeadlineMisses++
		}
		if now < next {
			c.Sleep(next - now)
			now = next
		}
		next += sd.period
		if next <= now {
			// Deep overrun: re-anchor rather than replaying missed
			// periods (one miss counted per overrunning job).
			next = now + sd.period
		}
	}
}

// Domain exposes the underlying Nemesis domain (tests, tracing).
func (sd *StreamDomain) Domain() *nemesis.Domain { return sd.d }

// Work reports the per-period CPU cost at the current tier.
func (sd *StreamDomain) Work() sim.Duration { return sd.work }

// Period reports the contract period (one frame time).
func (sd *StreamDomain) Period() sim.Duration { return sd.period }

// Released reports whether the domain has been torn down.
func (sd *StreamDomain) Released() bool { return sd.released }

// Reshape renegotiates the stream's CPU contract to the tier serving
// frameBytes per frame, in place: shrinking always succeeds and frees
// utilisation immediately; growing is admission-controlled against the
// cap and a refusal (sched.ErrOverCommit) changes nothing.
func (sd *StreamDomain) Reshape(frameBytes int) error {
	if sd.released {
		return fmt.Errorf("core: reshape of a released stream domain")
	}
	work := sd.cpu.StreamWork(frameBytes)
	if work == sd.work {
		return nil
	}
	if err := sd.cpu.QoS.ReshapeReservation(sd.d, work, sd.period); err != nil {
		return err
	}
	sd.work = work
	sd.cpu.Stats.Reshaped++
	return nil
}

// Release tears the domain down and returns its reservation — the CPU
// analogue of netsig.TearDown and CMStream.Release. Idempotent.
func (sd *StreamDomain) Release() {
	if sd.released {
		return
	}
	sd.released = true
	sd.cpu.QoS.Release(sd.d)
	sd.cpu.Kernel.Kill(sd.d)
	sd.cpu.Stats.Released++
}
