package memory

import (
	"testing"
	"testing/quick"

	"hetbench/internal/sim/device"
)

func TestPeakScalesWithMemClock(t *testing.T) {
	s := NewSystem(device.R9280X())
	base := s.PeakBandwidthGBs()
	s.SetMemClock(s.memClockMHz / 2)
	if got := s.PeakBandwidthGBs(); got >= base {
		t.Errorf("halving clock left bandwidth %g >= %g", got, base)
	}
	s.SetMemClock(device.R9280X().MemClockMHz)
	if got := s.PeakBandwidthGBs(); got != base {
		t.Errorf("restored bandwidth %g != %g", got, base)
	}
}

func TestSetMemClockPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetMemClock(0) did not panic")
		}
	}()
	NewSystem(device.R9280X()).SetMemClock(0)
}

func TestEffectiveBandwidthBelowPeak(t *testing.T) {
	s := NewSystem(device.R9280X())
	d := device.R9280X()
	for _, core := range []int{200, 400, 600, 800, 925, 1000} {
		eff := s.EffectiveBandwidthGBs(core)
		if eff <= 0 {
			t.Errorf("core %d: effective bandwidth %g <= 0", core, eff)
		}
		if eff > s.PeakBandwidthGBs()*Efficiency+1e-9 {
			t.Errorf("core %d: effective %g exceeds derated peak", core, eff)
		}
		_ = d
	}
}

// The Figure 7 interaction: at low core clocks the request-generation limit
// binds, so raising memory frequency yields no benefit; at high core clocks
// DRAM binds and memory frequency matters.
func TestLowCoreClockStarvesMemory(t *testing.T) {
	d := device.R9280X()
	lowCore := 200

	sLow := NewSystem(d)
	sLow.SetMemClock(480)
	sHigh := NewSystem(d)
	sHigh.SetMemClock(1250)

	atLow := sLow.EffectiveBandwidthGBs(lowCore)
	atHigh := sHigh.EffectiveBandwidthGBs(lowCore)
	if ratio := atHigh / atLow; ratio > 1.15 {
		t.Errorf("at %d MHz core, mem 480→1250 scaled bandwidth by %.2f×; want ≈flat (request-limited)", lowCore, ratio)
	}

	// At full core clock the same memory sweep must scale substantially.
	fullCore := d.CoreClockMHz
	atLowFull := sLow.EffectiveBandwidthGBs(fullCore)
	atHighFull := sHigh.EffectiveBandwidthGBs(fullCore)
	if ratio := atHighFull / atLowFull; ratio < 2.0 {
		t.Errorf("at %d MHz core, mem 480→1250 scaled bandwidth by only %.2f×; want ≥2×", fullCore, ratio)
	}
}

func TestEffectiveBandwidthMonotone(t *testing.T) {
	s := NewSystem(device.R9280X())
	f := func(a, b uint16) bool {
		ca, cb := int(a%1800)+100, int(b%1800)+100
		if ca > cb {
			ca, cb = cb, ca
		}
		return s.EffectiveBandwidthGBs(ca) <= s.EffectiveBandwidthGBs(cb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Errorf("effective bandwidth not monotone in core clock: %v", err)
	}
}

func TestDrainTime(t *testing.T) {
	s := NewSystem(device.R9280X())
	if got := s.DrainTimeNs(0, 925); got != 0 {
		t.Errorf("DrainTimeNs(0) = %g, want 0", got)
	}
	if got := s.DrainTimeNs(-5, 925); got != 0 {
		t.Errorf("DrainTimeNs(-5) = %g, want 0", got)
	}
	// 219 GB/s effective → 1 GB drains in ≈4.56 ms.
	oneGB := s.DrainTimeNs(1e9, 925)
	if oneGB < 4e6 || oneGB > 6e6 {
		t.Errorf("1 GB drain = %g ns, want ≈4.6e6", oneGB)
	}
	// More bytes take strictly longer.
	if s.DrainTimeNs(2e9, 925) <= oneGB {
		t.Error("drain time not increasing in bytes")
	}
}

func TestAPUBandwidthIsSmall(t *testing.T) {
	apu := NewSystem(device.A10_7850K())
	dgpu := NewSystem(device.R9280X())
	ra := apu.EffectiveBandwidthGBs(720)
	rd := dgpu.EffectiveBandwidthGBs(925)
	if rd/ra < 5 {
		t.Errorf("dGPU/APU bandwidth ratio = %.1f, want order of magnitude (paper: 258 vs 33)", rd/ra)
	}
}
