package mpix

import (
	"math"
	"testing"
	"testing/quick"
)

func cluster(n int) *Cluster { return NewCluster(n, DefaultFabric()) }

func TestConstruction(t *testing.T) {
	c := cluster(4)
	if c.Size() != 4 {
		t.Fatalf("size = %d", c.Size())
	}
	for i := 0; i < 4; i++ {
		r := c.Rank(i)
		if r.ID != i || r.clockNs != 0 {
			t.Errorf("rank %d malformed", i)
		}
	}
	if c.fabric.Name == "" {
		t.Error("fabric unnamed")
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewCluster(0, DefaultFabric()) },
		func() { NewCluster(2, Fabric{LatencyUs: -1, BandwidthGBs: 1}) },
		func() { NewCluster(2, Fabric{LatencyUs: 1, BandwidthGBs: 0}) },
		func() { cluster(2).Rank(5) },
		func() { cluster(2).Sendrecv(0, 1, -8) },
		func() { cluster(2).Sendrecv(1, 1, 8) },
		func() { cluster(2).Allreduce(-1) },
		func() { cluster(2).Rank(0).AdvanceNs(-1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSendClockSemantics(t *testing.T) {
	c := cluster(2)
	c.Rank(0).AdvanceNs(1000) // rank 0 is ahead; rank 1 at 0
	c.Sendrecv(0, 1, 6000)    // 6 KB at 6 GB/s = 1000 ns + 1300 ns latency
	// Both complete at max(1000,0) + 1300 + 1000 = 3300.
	for i := 0; i < 2; i++ {
		if got := c.Rank(i).clockNs; math.Abs(got-3300) > 1 {
			t.Errorf("rank %d clock = %g, want 3300", i, got)
		}
	}
}

func TestSendWaitsForLateReceiver(t *testing.T) {
	c := cluster(2)
	c.Rank(1).AdvanceNs(10_000) // receiver busy
	c.Sendrecv(0, 1, 0)
	if got := c.Rank(1).clockNs; got < 10_000+1300-1 {
		t.Errorf("receiver clock = %g, message arrived before it was ready", got)
	}
}

func TestSendrecvSymmetric(t *testing.T) {
	c := cluster(2)
	c.Rank(0).AdvanceNs(500)
	c.Sendrecv(0, 1, 6000)
	a, b := c.Rank(0).clockNs, c.Rank(1).clockNs
	if a != b {
		t.Errorf("exchange left clocks unequal: %g vs %g", a, b)
	}
	if a < 500+1300+1000-1 {
		t.Errorf("exchange too fast: %g", a)
	}
}

func TestAllreduceSynchronizesToSlowest(t *testing.T) {
	c := cluster(8)
	c.Rank(3).AdvanceNs(50_000)
	c.Allreduce(8)
	want := 50_000 + 3*(1300+8.0/6.0) // log2(8)=3 rounds
	for i := 0; i < 8; i++ {
		if got := c.Rank(i).clockNs; math.Abs(got-want) > 1 {
			t.Fatalf("rank %d clock = %g, want %g", i, got, want)
		}
	}
}

func TestAllreduceRoundsScaleLogarithmically(t *testing.T) {
	t2, t16 := cluster(2), cluster(16)
	t2.Allreduce(8)
	t16.Allreduce(8)
	// 1 round vs 4 rounds.
	if r := t16.MaxTimeNs() / t2.MaxTimeNs(); math.Abs(r-4) > 0.01 {
		t.Errorf("allreduce 16/2 rank cost ratio = %g, want 4 (log2 rounds)", r)
	}
}

func TestBarrierAndMinMax(t *testing.T) {
	c := cluster(4)
	c.Rank(2).AdvanceNs(7000)
	if c.MaxTimeNs() != 7000 {
		t.Errorf("max = %g, want the slowest rank's 7000", c.MaxTimeNs())
	}
	c.Allreduce(0) // a barrier
	for i := 0; i < 4; i++ {
		if got := c.Rank(i).clockNs; got != c.MaxTimeNs() || got < 7000 {
			t.Errorf("rank %d clock = %g after the barrier, max %g", i, got, c.MaxTimeNs())
		}
	}
}

func TestQuickClocksNeverRegress(t *testing.T) {
	f := func(ops []uint8) bool {
		c := cluster(4)
		prev := make([]float64, 4)
		for _, op := range ops {
			a, b := int(op)%4, (int(op)/4)%4
			if op%2 == 0 && a != b {
				c.Sendrecv(a, b, int64(op)*64)
			} else {
				c.Allreduce(8)
			}
			for i := 0; i < 4; i++ {
				now := c.Rank(i).clockNs
				if now < prev[i]-1e-9 {
					return false
				}
				prev[i] = now
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
