package fault

import (
	"math"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"typical", Config{Seed: 1, LaunchFailRate: 0.1, HangRate: 0.05, BitFlipRate: 0.05, TransferCorruptRate: 0.1, DeviceLossRate: 0.01}, true},
		{"negative rate", Config{LaunchFailRate: -0.1}, false},
		{"rate above cap", Config{TransferCorruptRate: 0.9}, false},
		{"launch sum above cap", Config{LaunchFailRate: 0.3, HangRate: 0.3, BitFlipRate: 0.3}, false},
		{"nan rate", Config{HangRate: math.NaN()}, false},
		{"negative loss window", Config{DeviceLossNs: -1}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// A zero Config never fires; any nonzero rate does.
func TestConfigEnabled(t *testing.T) {
	off, on := New(Config{}), New(Config{HangRate: 0.1})
	for n := 0; n < 1000; n++ {
		off.Launch(0)
		off.Transfer(0)
		on.Launch(0)
	}
	if off.Total() != 0 {
		t.Fatalf("zero config fired %d faults", off.Total())
	}
	if on.Total() == 0 {
		t.Fatal("nonzero hang rate fired no fault in 1000 launches")
	}
}

// TestDeterminism: two injectors with the same seed draw identical fault
// sequences; a different seed diverges.
func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, LaunchFailRate: 0.2, HangRate: 0.1, BitFlipRate: 0.1, TransferCorruptRate: 0.2, DeviceLossRate: 0.02}
	draw := func(seed int64) []Kind {
		c := cfg
		c.Seed = seed
		inj := New(c)
		var out []Kind
		now := 0.0
		for i := 0; i < 500; i++ {
			out = append(out, inj.Launch(now))
			out = append(out, inj.Transfer(now))
			now += 1e4
		}
		return out
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %q vs %q", i, a[i], b[i])
		}
	}
	c := draw(7)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 1000-draw sequences")
	}
}

func TestLaunchRates(t *testing.T) {
	inj := New(Config{Seed: 3, LaunchFailRate: 0.25})
	const n = 10000
	fails := 0
	for i := 0; i < n; i++ {
		if k := inj.Launch(float64(i) * 1e3); k == LaunchFail {
			fails++
		} else if k != None {
			t.Fatalf("unexpected kind %q with only LaunchFailRate set", k)
		}
	}
	got := float64(fails) / n
	if got < 0.2 || got > 0.3 {
		t.Fatalf("LaunchFail rate %g far from configured 0.25", got)
	}
	if inj.Count(LaunchFail) != int64(fails) {
		t.Fatalf("Count(LaunchFail) = %d, want %d", inj.Count(LaunchFail), fails)
	}
	if inj.Total() != int64(fails) {
		t.Fatalf("Total() = %d, want %d", inj.Total(), fails)
	}
}

// TestDeviceLossWindow: once the device drops, every launch inside the
// window fails with DeviceLost; after the window the device returns; and
// ResetWindow clears a pending loss.
func TestDeviceLossWindow(t *testing.T) {
	inj := New(Config{Seed: 1, DeviceLossRate: maxRate, DeviceLossNs: 1000})
	if k := inj.Launch(0); k != DeviceLost {
		t.Fatalf("first draw %q, want certain device loss", k)
	}
	until := inj.LostUntilNs()
	if until != 1000 {
		t.Fatalf("LostUntilNs = %g, want 1000", until)
	}
	if k := inj.Launch(999); k != DeviceLost {
		t.Fatalf("launch inside loss window = %q, want DeviceLost", k)
	}
	// Past the window edge the device is back until the rate re-draws a
	// loss, which then opens a new window from the draw time.
	now := 1000.0
	for inj.Launch(now) != DeviceLost {
		now += 10
	}
	if got := inj.LostUntilNs(); got != now+1000 {
		t.Fatalf("new window ends at %g, want %g", got, now+1000)
	}
	inj.ResetWindow()
	if inj.LostUntilNs() != 0 {
		t.Fatal("ResetWindow did not clear the loss window")
	}
}

func TestPolicyBackoff(t *testing.T) {
	p := Policy{MaxAttempts: 4, BackoffBaseNs: 100, BackoffFactor: 2, BackoffMaxNs: 500, WatchdogNs: 1}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []float64{100, 200, 400, 500, 500}
	for i, w := range want {
		if got := p.BackoffNs(i + 1); got != w {
			t.Errorf("BackoffNs(%d) = %g, want %g", i+1, got, w)
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatalf("DefaultPolicy invalid: %v", err)
	}
	bad := []Policy{
		{MaxAttempts: 0, BackoffFactor: 2, BackoffMaxNs: 1, WatchdogNs: 1},
		{MaxAttempts: 1, BackoffBaseNs: -1, BackoffFactor: 2, WatchdogNs: 1},
		{MaxAttempts: 1, BackoffFactor: 0.5, WatchdogNs: 1},
		{MaxAttempts: 1, BackoffBaseNs: 10, BackoffFactor: 1, BackoffMaxNs: 5, WatchdogNs: 1},
		{MaxAttempts: 1, BackoffFactor: 1, WatchdogNs: 0},
		{MaxAttempts: 1, BackoffFactor: 1, WatchdogNs: 1, MaxRunRedos: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d validated", i)
		}
	}
}

func TestFlipBitDetectableAndInvolutive(t *testing.T) {
	for _, v := range []float64{1.0, -3.75, 1e-12, 12345.678} {
		f := FlipBit(v)
		if f == v {
			t.Errorf("FlipBit(%g) did not change the value", v)
		}
		if FlipBit(f) != v {
			t.Errorf("FlipBit not involutive at %g", v)
		}
		if math.IsInf(f, 0) || math.IsNaN(f) {
			t.Errorf("FlipBit(%g) = %g is not finite", v, f)
		}
	}
}

func TestCorruptor(t *testing.T) {
	inj := New(Config{Seed: 9})
	var c Corruptor
	if _, _, ok := c.Corrupt(inj); ok {
		t.Fatal("corrupting with nothing bound reported ok")
	}
	data := []float64{1, 2, 3, 4}
	orig := append([]float64(nil), data...)
	c.Bind("out", data)
	name, idx, ok := c.Corrupt(inj)
	if !ok || name != "out" {
		t.Fatalf("Corrupt = (%q, %d, %v), want a hit on \"out\"", name, idx, ok)
	}
	changed := 0
	for i := range data {
		if data[i] != orig[i] {
			changed++
			if i != idx {
				t.Errorf("element %d changed but Corrupt reported index %d", i, idx)
			}
		}
	}
	if changed != 1 {
		t.Fatalf("%d elements changed, want exactly 1", changed)
	}
	// Re-binding replaces the slice rather than appending a duplicate.
	fresh := []float64{5}
	c.Bind("out", fresh)
	if _, _, ok := c.Corrupt(inj); !ok {
		t.Fatal("corrupt after re-bind failed")
	}
	if fresh[0] == 5 {
		t.Fatal("re-bound slice was not the corruption target")
	}
}

// SubSeed must be pure, spread adjacent (parent, stream) pairs apart, and
// never return the zero "use the default" sentinel.
func TestSubSeed(t *testing.T) {
	if SubSeed(42, 7) != SubSeed(42, 7) {
		t.Fatal("SubSeed is not deterministic")
	}
	seen := make(map[int64]struct{})
	for parent := int64(0); parent < 4; parent++ {
		for stream := int64(0); stream < 256; stream++ {
			s := SubSeed(parent, stream)
			if s == 0 {
				t.Fatalf("SubSeed(%d, %d) = 0", parent, stream)
			}
			if _, dup := seen[s]; dup {
				t.Fatalf("SubSeed(%d, %d) collides with an earlier pair", parent, stream)
			}
			seen[s] = struct{}{}
		}
	}
}
