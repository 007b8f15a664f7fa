// Package fault is the deterministic fault injector for the simulated
// heterogeneous system. It perturbs the machine at its three choke points —
// kernel launches (transient failure, watchdog-exceeding hang, silent
// single-element corruption), PCIe transfers (CRC failure forcing
// retransmission) and whole-device loss (the accelerator disappears for a
// window of virtual time) — so the harness and the programming-model
// runtimes can be exercised against an unreliable platform.
//
// Everything is seeded: one Injector draws from one PRNG in a fixed order,
// so a run with the same seed, workload and policy reproduces the same
// fault sequence bit for bit. The package has no simulator dependencies;
// sim.Machine consults an attached Injector from its launch and transfer
// paths, and with no injector attached those paths pay a single nil check.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Kind names one injected fault class.
type Kind string

// Fault kinds.
const (
	// None means the operation proceeds cleanly.
	None Kind = ""
	// LaunchFail is a transient kernel-launch failure: the driver rejects
	// the launch after charging its fixed launch overhead.
	LaunchFail Kind = "launch-fail"
	// Hang is a kernel that never completes; the victim burns virtual time
	// until the watchdog deadline kills it.
	Hang Kind = "hang"
	// BitFlip is silent data corruption: the kernel completes normally and
	// on time, but one element of a bound output array has a flipped bit.
	// Nothing reports it — only end-to-end checksum validation can.
	BitFlip Kind = "bit-flip"
	// TransferCorrupt is a PCIe transfer that fails its CRC check: the
	// payload time was spent, and the transfer must be retransmitted.
	TransferCorrupt Kind = "transfer-corrupt"
	// DeviceLost removes the accelerator for a window of virtual time;
	// launches and transfers during the window fail immediately.
	DeviceLost Kind = "device-lost"
)

// Event reports one injected fault to the caller that suffered it.
type Event struct {
	Kind Kind
	Op   string // kernel or transfer name
}

// Error implements error so runtimes can thread events through error paths.
func (e *Event) Error() string {
	return fmt.Sprintf("fault: %s on %s", e.Kind, e.Op)
}

// maxRate bounds every per-operation probability so retry loops terminate
// quickly; a system failing more than 3 operations in 4 is not "degraded",
// it is broken, and the experiments sweep far below this.
const maxRate = 0.75

// Config sets the per-operation fault probabilities and the seed.
// The zero value injects nothing.
type Config struct {
	// Seed initializes the injector's PRNG; runs with equal seeds, rates
	// and workloads are bit-reproducible.
	Seed int64

	// Per kernel-launch probabilities. They are mutually exclusive per
	// draw, so their sum must stay ≤ maxRate.
	LaunchFailRate float64
	HangRate       float64
	BitFlipRate    float64
	DeviceLossRate float64

	// TransferCorruptRate is the per-PCIe-transfer CRC-failure probability.
	TransferCorruptRate float64

	// DeviceLossNs is how long a lost accelerator stays gone in virtual
	// time. Zero selects DefaultDeviceLossNs.
	DeviceLossNs float64
}

// DefaultDeviceLossNs is the device-loss window used when Config leaves it
// zero: 400 µs of virtual time, long enough that a default backoff schedule
// only just rides it out.
const DefaultDeviceLossNs = 400e3

// Validate reports malformed configurations.
func (c Config) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"LaunchFailRate", c.LaunchFailRate},
		{"HangRate", c.HangRate},
		{"BitFlipRate", c.BitFlipRate},
		{"DeviceLossRate", c.DeviceLossRate},
		{"TransferCorruptRate", c.TransferCorruptRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > maxRate || math.IsNaN(r.v) {
			return fmt.Errorf("fault: %s %g outside [0, %g]", r.name, r.v, maxRate)
		}
	}
	if sum := c.LaunchFailRate + c.HangRate + c.BitFlipRate + c.DeviceLossRate; sum > maxRate {
		return fmt.Errorf("fault: launch fault rates sum to %g, above %g", sum, maxRate)
	}
	if c.DeviceLossNs < 0 || math.IsNaN(c.DeviceLossNs) {
		return fmt.Errorf("fault: DeviceLossNs %g must be ≥0", c.DeviceLossNs)
	}
	return nil
}

func (c Config) deviceLossNs() float64 {
	if c.DeviceLossNs > 0 {
		return c.DeviceLossNs
	}
	return DefaultDeviceLossNs
}

// Injector draws fault decisions from a seeded PRNG. It is safe for
// concurrent use; decisions are serialized, so a single-threaded run with
// a fixed seed is deterministic.
type Injector struct {
	mu          sync.Mutex
	cfg         Config
	rng         *rand.Rand
	counts      map[Kind]int64
	lostUntilNs float64
}

// New builds an injector, panicking on an invalid configuration (rates are
// experiment constants; use Config.Validate first for untrusted input).
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Injector{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		counts: make(map[Kind]int64),
	}
}

// Launch draws the fate of one accelerator kernel launch at virtual time
// nowNs. During a device-loss window every launch fails with DeviceLost;
// otherwise one uniform draw partitions into the configured launch faults.
func (i *Injector) Launch(nowNs float64) Kind {
	i.mu.Lock()
	defer i.mu.Unlock()
	if nowNs < i.lostUntilNs {
		i.counts[DeviceLost]++
		return DeviceLost
	}
	u := i.rng.Float64()
	p := i.cfg.DeviceLossRate
	if u < p {
		i.lostUntilNs = nowNs + i.cfg.deviceLossNs()
		i.counts[DeviceLost]++
		return DeviceLost
	}
	if p += i.cfg.LaunchFailRate; u < p {
		i.counts[LaunchFail]++
		return LaunchFail
	}
	if p += i.cfg.HangRate; u < p {
		i.counts[Hang]++
		return Hang
	}
	if p += i.cfg.BitFlipRate; u < p {
		i.counts[BitFlip]++
		return BitFlip
	}
	return None
}

// Transfer draws the fate of one PCIe transfer at virtual time nowNs:
// TransferCorrupt (CRC failure, retransmit) or None. Device loss is not
// drawn here — the machine consults LostUntilNs and waits the window out.
func (i *Injector) Transfer(nowNs float64) Kind {
	_ = nowNs
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.rng.Float64() < i.cfg.TransferCorruptRate {
		i.counts[TransferCorrupt]++
		return TransferCorrupt
	}
	return None
}

// LostUntilNs returns the virtual time at which a lost device returns
// (0 when the device has never been lost).
func (i *Injector) LostUntilNs() float64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.lostUntilNs
}

// ResetWindow clears any open device-loss window. The machine calls it
// when its virtual clock resets, so a window opened late in one run cannot
// leak into the next run's fresh clock.
func (i *Injector) ResetWindow() {
	i.mu.Lock()
	i.lostUntilNs = 0
	i.mu.Unlock()
}

// Pick draws a uniform index in [0, n) from the injector's PRNG — the
// deterministic victim selector for bit flips.
func (i *Injector) Pick(n int) int {
	if n <= 0 {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rng.Intn(n)
}

// Count returns how many faults of one kind have been injected.
func (i *Injector) Count(k Kind) int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.counts[k]
}

// Total returns the total number of injected faults.
func (i *Injector) Total() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	var n int64
	for _, v := range i.counts {
		n += v
	}
	return n
}
