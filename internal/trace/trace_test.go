package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// Concurrent emitters must not lose or corrupt spans (run under -race).
func TestConcurrentEmit(t *testing.T) {
	tr := New()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			proc := tr.RegisterProcess(fmt.Sprintf("machine-%d", w))
			for i := 0; i < per; i++ {
				tr.Emit(Span{
					Proc: proc, Track: TrackAccelerator, Kind: KindKernel,
					Name: fmt.Sprintf("k%d", i), StartNs: float64(i), DurNs: 1,
				})
				tr.Metrics().Add(CtrKernelLaunches, 1)
			}
		}(w)
	}
	wg.Wait()

	if got := tr.Len(); got != workers*per {
		t.Errorf("spans = %d, want %d", got, workers*per)
	}
	if got := tr.Metrics().Get(CtrKernelLaunches); got != workers*per {
		t.Errorf("kernel.launches = %g, want %d", got, workers*per)
	}
	ids := map[uint64]bool{}
	for _, s := range tr.Spans() {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
	}
	if len(tr.Processes()) != workers {
		t.Errorf("processes = %d, want %d", len(tr.Processes()), workers)
	}
}

// Spans returns the spans in emission order, as a copy the caller may
// modify without touching the tracer's record.
func TestSpansReturnsCopy(t *testing.T) {
	tr := New()
	tr.Emit(Span{Name: "a"})
	tr.Emit(Span{Name: "b"})
	got := tr.Spans()
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("Spans() = %+v", got)
	}
	got[0].Name = "changed"
	if tr.Spans()[0].Name != "a" {
		t.Error("modifying Spans' result changed the tracer's spans")
	}
}

// WriteChrome must produce valid JSON whose "X" events have monotone
// timestamps within every (pid, tid) track.
func TestWriteChromeMonotone(t *testing.T) {
	tr := New()
	p0 := tr.RegisterProcess("APU")
	p1 := tr.RegisterProcess("R9 280X")
	// Emit deliberately out of order.
	for i := 5; i >= 0; i-- {
		tr.Emit(Span{Proc: p0, Track: TrackAccelerator, Kind: KindKernel,
			Name: fmt.Sprintf("k%d", i), StartNs: float64(i * 1000), DurNs: 500, Device: "gpu", Items: 64})
		tr.Emit(Span{Proc: p1, Track: TrackPCIe, Kind: KindTransfer,
			Name: "buf", StartNs: float64(i * 2000), DurNs: 100, Dir: "h2d", Bytes: 1 << 20})
	}

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}

	lastTs := map[[2]int]float64{}
	var xEvents, metaNames int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" || e.Name == "thread_name" {
				metaNames++
			}
		case "X":
			xEvents++
			key := [2]int{e.Pid, e.Tid}
			if prev, ok := lastTs[key]; ok && e.Ts < prev {
				t.Fatalf("track %v: ts %.1f after %.1f", key, e.Ts, prev)
			}
			lastTs[key] = e.Ts
			if e.Dur < 0 {
				t.Errorf("negative dur on %q", e.Name)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if xEvents != 12 {
		t.Errorf("X events = %d, want 12", xEvents)
	}
	if metaNames < 4 { // 2 process names + 2 thread names
		t.Errorf("metadata events = %d, want >= 4", metaNames)
	}
	// Attribute args survive the round trip.
	found := false
	for _, e := range out.TraceEvents {
		if e.Ph == "X" && e.Name == "buf" {
			found = true
			if e.Args["dir"] != "h2d" || e.Args["bytes"] != float64(1<<20) {
				t.Errorf("transfer args = %v", e.Args)
			}
		}
	}
	if !found {
		t.Error("transfer event missing")
	}
}

func TestAggregate(t *testing.T) {
	spans := []Span{
		{Kind: KindKernel, Name: "a", DurNs: 10, Bound: "mem"},
		{Kind: KindKernel, Name: "b", DurNs: 30},
		{Kind: KindKernel, Name: "a", DurNs: 15, Bound: "mem"},
		{Kind: KindTransfer, Name: "t", DurNs: 100, Bytes: 4096},
	}
	kernels := Aggregate(spans, KindKernel)
	if len(kernels) != 2 || kernels[0].Name != "b" || kernels[1].Calls != 2 || kernels[1].TotalNs != 25 {
		t.Errorf("kernel aggregate = %+v", kernels)
	}
	if kernels[1].Bound != "mem" {
		t.Errorf("bound not carried: %+v", kernels[1])
	}
	transfers := Aggregate(spans, KindTransfer)
	if len(transfers) != 1 || transfers[0].Bytes != 4096 {
		t.Errorf("transfer aggregate = %+v", transfers)
	}
	if got := TotalNs(kernels); got != 55 {
		t.Errorf("TotalNs = %g", got)
	}
	if all := Aggregate(spans); len(all) != 3 {
		t.Errorf("unfiltered aggregate = %+v", all)
	}
}

func TestRegistry(t *testing.T) {
	var r Registry // zero value usable
	r.Add(CtrDRAMBytes, 100)
	r.Add(CtrDRAMBytes, 28)
	if r.Get(CtrDRAMBytes) != 128 {
		t.Errorf("registry: %v", r.Snapshot())
	}
	if names := r.Names(); len(names) != 1 || names[0] != CtrDRAMBytes {
		t.Errorf("names = %v", names)
	}
}

// The registry accepts any name in Add and Observe and checks it on
// export: every exporter panics on a name outside the contract.
func TestRegistryChecksNamesOnExport(t *testing.T) {
	tests := []struct {
		name string
		hist bool
		ok   bool
	}{
		{"fault.transfer-corrupt", false, true},
		{"instrs", false, true},
		{"hist.kernel.ns", true, true},
		{"Kernel.NS", false, false},
		{"widget.count", false, false},
		{"sched..splits", false, false},
		{"fault.-hang", false, false},
		{"hist.kernel.ns", false, false}, // a hist. counter
		{"kernel.ns", true, false},       // a histogram outside hist.
		{"hist", true, false},
	}
	for _, tc := range tests {
		var r Registry
		exports := map[string]func(){"Snapshot": func() { r.Snapshot() }, "Names": func() { r.Names() }}
		if tc.hist {
			r.Observe(Hist(tc.name), 1)
			exports = map[string]func(){"Histograms": func() { r.Histograms() }, "HistNames": func() { r.HistNames() }}
		} else {
			r.Add(Counter(tc.name), 1)
		}
		for export, call := range exports {
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				call()
				return false
			}()
			if panicked == tc.ok {
				t.Errorf("%s of %q (hist %v): panicked %v, want %v", export, tc.name, tc.hist, panicked, !tc.ok)
			}
		}
	}
}

// Fold must remap child span IDs, parent links and process indices into
// the destination's namespace while leaving span payloads untouched.
func TestFold(t *testing.T) {
	dst := New()
	dst.RegisterProcess("machine-a")
	rootID := dst.NewSpanID()
	dst.Emit(Span{ID: rootID, Name: "dst-root", Kind: KindRun})

	child := New()
	proc := child.RegisterProcess("machine-b")
	parent := child.NewSpanID()
	kid := child.NewSpanID()
	child.Emit(Span{ID: kid, Parent: parent, Proc: proc, Name: "kernel", Kind: KindKernel, DurNs: 5})
	child.Emit(Span{ID: parent, Proc: proc, Name: "run", Kind: KindRun, DurNs: 9})
	child.Metrics().Add(CtrKernelLaunches, 1)

	dst.Fold(child)

	procs := dst.Processes()
	if len(procs) != 2 || procs[1] != "machine-b" {
		t.Fatalf("processes after fold: %v", procs)
	}
	spans := dst.Spans()
	if len(spans) != 3 {
		t.Fatalf("span count after fold: %d", len(spans))
	}
	fk, fr := spans[1], spans[2]
	if fk.Name != "kernel" || fr.Name != "run" {
		t.Fatalf("folded spans out of order: %+v", spans)
	}
	if fk.ID == kid || fk.ID == rootID || fk.Parent != fr.ID {
		t.Errorf("IDs not remapped consistently: kernel %+v run %+v", fk, fr)
	}
	if fk.Proc != 1 || fr.Proc != 1 {
		t.Errorf("proc indices not shifted: kernel proc %d, run proc %d", fk.Proc, fr.Proc)
	}
	if fk.DurNs != 5 || fr.DurNs != 9 {
		t.Errorf("span payloads changed: %+v %+v", fk, fr)
	}
	// Fresh IDs allocated after the fold must not collide with folded ones.
	next := dst.NewSpanID()
	if next == fk.ID || next == fr.ID || next == rootID {
		t.Errorf("NewSpanID %d collides with folded IDs", next)
	}
	if dst.Metrics().Get(CtrKernelLaunches) != 1 {
		t.Error("metrics not merged on fold")
	}

	// Folding nil or self is a no-op.
	dst.Fold(nil)
	dst.Fold(dst)
	if dst.Len() != 3 {
		t.Errorf("nil/self fold changed span count to %d", dst.Len())
	}
}

// Merge accumulates counters; merged-in-order registries are bit-identical regardless of source construction order.
func TestRegistryMerge(t *testing.T) {
	var a, b, dst Registry
	a.Add(CtrKernelNs, 100)
	b.Add(CtrKernelNs, 28)
	b.Add(CtrTransferNs, 7)
	dst.Add(CtrKernelNs, 1)
	dst.Merge(&a)
	dst.Merge(&b)
	if got := dst.Get(CtrKernelNs); got != 129 {
		t.Errorf("merged counter = %g, want 129", got)
	}
	if got := dst.Get(CtrTransferNs); got != 7 {
		t.Errorf("merged counter = %g, want 7", got)
	}
	dst.Merge(nil)
	dst.Merge(&dst)
	if dst.Get(CtrKernelNs) != 129 {
		t.Error("nil/self merge changed counters")
	}
}
