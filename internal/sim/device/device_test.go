package device

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// The stock devices validate, and each constructor returns a fresh copy:
// mutating one must not affect the next.
func TestCatalogValidates(t *testing.T) {
	for _, mk := range []func() *Device{R9280X, A10_7850K, HostCPU} {
		d := mk()
		if err := d.Validate(); err != nil {
			t.Errorf("stock device %q invalid: %v", d.Name, err)
		}
		d.CoreClockMHz = 1
		if mk().CoreClockMHz == 1 {
			t.Errorf("%s constructor returns aliased devices", d.Name)
		}
	}
}

func TestR9280XMatchesTable2(t *testing.T) {
	d := R9280X()
	if got := d.TotalLanes(); got != 2048 {
		t.Errorf("R9 280X stream processors = %d, want 2048", got)
	}
	// Table II: 3800 GFLOPS peak single precision (within 1%).
	if got := d.PeakSPGflops(); math.Abs(got-3800) > 0.01*3800 {
		t.Errorf("R9 280X SP peak = %.0f GFLOPS, want ≈3800", got)
	}
	if got := d.PeakDPGflops(); math.Abs(got-950) > 0.01*950 {
		t.Errorf("R9 280X DP peak = %.0f GFLOPS, want ≈950", got)
	}
	if d.UnifiedMemory {
		t.Error("discrete GPU must not report unified memory")
	}
	if d.Kind != KindDiscreteGPU {
		t.Errorf("kind = %v, want discrete GPU", d.Kind)
	}
}

func TestAPUMatchesTable2(t *testing.T) {
	d := A10_7850K()
	// Table II: 738 GFLOPS SP for the whole APU; the GPU half
	// contributes 512 lanes × 2 × 0.72 GHz ≈ 737 GFLOPS.
	if got := d.PeakSPGflops(); math.Abs(got-737) > 5 {
		t.Errorf("APU GPU SP peak = %.0f GFLOPS, want ≈737", got)
	}
	if !d.UnifiedMemory {
		t.Error("APU must report unified memory")
	}
	if d.DPRatio != 1.0/16.0 {
		t.Errorf("APU DP ratio = %g, want 1/16", d.DPRatio)
	}
	if d.PeakBandwidthGBs != 33 {
		t.Errorf("APU bandwidth = %g, want 33 GB/s", d.PeakBandwidthGBs)
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Device)
	}{
		{"empty name", func(d *Device) { d.Name = "" }},
		{"zero CUs", func(d *Device) { d.ComputeUnits = 0 }},
		{"negative lanes", func(d *Device) { d.LanesPerCU = -1 }},
		{"zero wavefront", func(d *Device) { d.WavefrontSize = 0 }},
		{"zero core clock", func(d *Device) { d.CoreClockMHz = 0 }},
		{"zero mem clock", func(d *Device) { d.MemClockMHz = 0 }},
		{"zero flop rate", func(d *Device) { d.FlopsPerLanePerClock = 0 }},
		{"DP ratio > 1", func(d *Device) { d.DPRatio = 1.5 }},
		{"DP ratio zero", func(d *Device) { d.DPRatio = 0 }},
		{"zero bandwidth", func(d *Device) { d.PeakBandwidthGBs = 0 }},
		{"zero L2", func(d *Device) { d.L2SizeBytes = 0 }},
		{"L2 not divisible", func(d *Device) { d.L2SizeBytes = 1000; d.L2Ways = 16; d.CacheLineBytes = 64 }},
		{"zero latency", func(d *Device) { d.MemLatencyNs = 0 }},
		{"zero outstanding", func(d *Device) { d.MaxOutstandingReqs = 0 }},
	}
	for _, m := range mutations {
		d := R9280X()
		m.mut(d)
		if err := d.Validate(); err == nil {
			t.Errorf("Validate accepted device with %s", m.name)
		}
	}
}

func TestBandwidthScalesLinearly(t *testing.T) {
	d := R9280X()
	half := d.BandwidthAt(d.MemClockMHz / 2)
	if math.Abs(half-d.PeakBandwidthGBs/2) > 1e-9 {
		t.Errorf("bandwidth at half clock = %g, want %g", half, d.PeakBandwidthGBs/2)
	}
	if got := d.BandwidthAt(d.MemClockMHz); got != d.PeakBandwidthGBs {
		t.Errorf("bandwidth at base clock = %g, want %g", got, d.PeakBandwidthGBs)
	}
}

func TestPeakGflopsMonotoneInClock(t *testing.T) {
	d := A10_7850K()
	f := func(a, b uint16) bool {
		ca, cb := int(a%2000)+1, int(b%2000)+1
		if ca > cb {
			ca, cb = cb, ca
		}
		return d.PeakSPGflopsAt(ca) <= d.PeakSPGflopsAt(cb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringContainsEssentials(t *testing.T) {
	s := R9280X().String()
	for _, want := range []string{"R9 280X", "discrete GPU", "32 CU", "GDDR5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	for _, k := range []Kind{KindCPU, KindDiscreteGPU, KindIntegratedGPU, Kind(99)} {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", int(k))
		}
	}
	if MemDDR3.String() != "DDR3" || MemGDDR5.String() != "GDDR5" {
		t.Error("MemKind.String wrong")
	}
}
