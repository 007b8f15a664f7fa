package pcie

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default link invalid: %v", err)
	}
}

func TestValidateRejectsBadLinks(t *testing.T) {
	bad := []Link{
		{Name: "zero bw", BandwidthGBs: 0, LatencyUs: 1},
		{Name: "neg bw", BandwidthGBs: -2, LatencyUs: 1},
		{Name: "neg lat", BandwidthGBs: 6, LatencyUs: -1},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("Validate(%s) = nil, want error", bad[i].Name)
		}
	}
}

func TestTransferTime(t *testing.T) {
	l := &Link{Name: "test", BandwidthGBs: 6, LatencyUs: 20}
	// Zero bytes: just latency.
	if got := l.TransferTimeUs(0); got != 20 {
		t.Errorf("TransferTimeUs(0) = %g, want 20", got)
	}
	// 6 GB at 6 GB/s = 1 s = 1e6 us (+20).
	if got := l.TransferTimeUs(6e9); got < 1e6 || got > 1e6+21 {
		t.Errorf("TransferTimeUs(6GB) = %g, want ≈1e6", got)
	}
	// 240 MB lookup table (the XSBench case) ≈ 40 ms.
	ms := l.TransferTimeUs(240<<20) / 1e3
	if ms < 35 || ms > 50 {
		t.Errorf("240 MB transfer = %g ms, want ≈40", ms)
	}
}

func TestTransferTimePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative transfer did not panic")
		}
	}()
	Default().TransferTimeUs(-1)
}

func TestLedger(t *testing.T) {
	l := Default()
	l.ToDevice(1000)
	l.ToDevice(2000)
	l.FromDevice(500)
	s := l.Stats()
	if s.TransfersToDevice != 2 || s.TransfersFromDevice != 1 {
		t.Errorf("transfer counts = %d/%d, want 2/1", s.TransfersToDevice, s.TransfersFromDevice)
	}
	if s.BytesToDevice != 3000 || s.BytesFromDevice != 500 {
		t.Errorf("bytes = %d/%d, want 3000/500", s.BytesToDevice, s.BytesFromDevice)
	}
	if s.TotalTimeUs <= 0 {
		t.Error("total time not accumulated")
	}
}

func TestConcurrentLedger(t *testing.T) {
	l := Default()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.ToDevice(64)
				l.FromDevice(64)
			}
		}()
	}
	wg.Wait()
	s := l.Stats()
	if s.TransfersToDevice != 800 || s.TransfersFromDevice != 800 {
		t.Errorf("concurrent counts = %d/%d, want 800/800", s.TransfersToDevice, s.TransfersFromDevice)
	}
}

func TestQuickMonotoneInBytes(t *testing.T) {
	l := Default()
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return l.TransferTimeUs(x) <= l.TransferTimeUs(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
