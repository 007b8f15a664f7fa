package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"hetbench/internal/harness"
	"hetbench/internal/harness/runner"
	"hetbench/internal/trace"
)

// countingRun is a RunFunc that counts executions and writes out.
func countingRun(calls *atomic.Int64, out string) RunFunc {
	return func(ctx context.Context, experiment string, scale harness.Scale, w io.Writer) error {
		calls.Add(1)
		fmt.Fprint(w, out)
		return nil
	}
}

func TestKeyNormalization(t *testing.T) {
	base := Key(RunRequest{Experiment: "table2", Scale: "default", Seed: 1})
	for name, req := range map[string]RunRequest{
		"zero seed defaults to 1":   {Experiment: "table2", Scale: "default"},
		"empty scale means default": {Experiment: "table2", Seed: 1},
		"timeout is not identity":   {Experiment: "table2", Scale: "default", Seed: 1, TimeoutMs: 5000},
	} {
		if got := Key(req); got != base {
			t.Errorf("%s: key %s != %s", name, got, base)
		}
	}
	for name, req := range map[string]RunRequest{
		"experiment": {Experiment: "table3", Scale: "default", Seed: 1},
		"scale":      {Experiment: "table2", Scale: "smoke", Seed: 1},
		"seed":       {Experiment: "table2", Scale: "default", Seed: 2},
	} {
		if got := Key(req); got == base {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

func TestDoCachesCleanResults(t *testing.T) {
	var calls atomic.Int64
	reg := &trace.Registry{}
	s := New(Options{Run: countingRun(&calls, "stable output\n"), Registry: reg})
	ctx := context.Background()
	req := RunRequest{Experiment: "x", Scale: "smoke"}

	cold, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("run executed %d times, want 1", calls.Load())
	}
	if cold.Cached || !warm.Cached {
		t.Fatalf("cached flags: cold %v, warm %v", cold.Cached, warm.Cached)
	}
	if warm.Output != cold.Output {
		t.Fatalf("hit output %q != cold output %q", warm.Output, cold.Output)
	}
	if h, m := reg.Get(trace.CtrServiceCacheHits), reg.Get(trace.CtrServiceCacheMisses); h != 1 || m != 1 {
		t.Fatalf("hits=%g misses=%g, want 1/1", h, m)
	}
}

func TestDoRejectsUnknownExperimentAndScale(t *testing.T) {
	s := New(Options{}) // registry-backed
	ctx := context.Background()
	if _, err := s.Do(ctx, RunRequest{Experiment: "no-such-experiment"}); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("unknown experiment: %v, want ErrUnknownExperiment", err)
	}
	if _, err := s.Do(ctx, RunRequest{Experiment: "table2", Scale: "galactic"}); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("bad scale: %v, want ErrUnknownExperiment", err)
	}
}

func TestCacheEviction(t *testing.T) {
	reg := &trace.Registry{}
	// Budget fits one entry (output + entryOverhead) but not two. Each
	// key renders its own bytes: identical outputs would share one copy.
	var calls atomic.Int64
	run := func(ctx context.Context, experiment string, scale harness.Scale, w io.Writer) error {
		calls.Add(1)
		fmt.Fprint(w, strings.Repeat(experiment, 512))
		return nil
	}
	s := New(Options{Run: run, Registry: reg, CacheBytes: 1024})
	ctx := context.Background()

	if _, err := s.Do(ctx, RunRequest{Experiment: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do(ctx, RunRequest{Experiment: "b"}); err != nil {
		t.Fatal(err)
	}
	if got := s.cache.Len(); got != 1 {
		t.Fatalf("cache holds %d entries, want 1 after eviction", got)
	}
	if ev := reg.Get(trace.CtrServiceCacheEvictions); ev != 1 {
		t.Fatalf("evictions = %g, want 1", ev)
	}
	// "b" is the resident entry; "a" was evicted and must re-execute.
	res, err := s.Do(ctx, RunRequest{Experiment: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("b should have survived as the most recently used entry")
	}
	if _, err := s.Do(ctx, RunRequest{Experiment: "a"}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("run executed %d times, want 3 (a, b, a-again)", calls.Load())
	}
}

// Two keys with identical output share one stored copy and charge the
// budget for it once; evicting one leaves the other's output intact.
func TestCacheSharesIdenticalOutputs(t *testing.T) {
	reg := &trace.Registry{}
	c := newResultCache(1<<20, reg)
	out := strings.Repeat("table", 200)
	c.put("a", &Result{Output: out})
	c.put("b", &Result{Output: strings.Clone(out)})
	if len(c.outputs) != 1 || c.outputs[out].refs != 2 {
		t.Fatalf("two identical outputs stored as %d copies", len(c.outputs))
	}
	if want := int64(len(out)) + 2*entryOverhead; c.size != want {
		t.Fatalf("cache charged %d bytes, want %d (the output once)", c.size, want)
	}
	a, _ := c.get("a")
	b, _ := c.get("b")
	if unsafe.StringData(a.Output) != unsafe.StringData(b.Output) {
		t.Fatal("the second key keeps its own copy of the output")
	}
	c.mu.Lock()
	c.evict(c.items["a"])
	c.mu.Unlock()
	if _, ok := c.get("a"); ok {
		t.Fatal("evicted key still cached")
	}
	if b, ok := c.get("b"); !ok || b.Output != out {
		t.Fatal("evicting one key lost the other's output")
	}
	if want := int64(len(out)) + entryOverhead; c.size != want || len(c.outputs) != 1 {
		t.Fatalf("after eviction: %d bytes charged, %d outputs; want %d and 1", c.size, len(c.outputs), want)
	}
	c.mu.Lock()
	c.evict(c.items["b"])
	c.mu.Unlock()
	if c.size != 0 || len(c.outputs) != 0 {
		t.Fatalf("empty cache still charges %d bytes for %d outputs", c.size, len(c.outputs))
	}
}

func TestCacheSkipsOversizedResults(t *testing.T) {
	var calls atomic.Int64
	s := New(Options{Run: countingRun(&calls, strings.Repeat("x", 4096)), CacheBytes: 1024})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := s.Do(ctx, RunRequest{Experiment: "huge"}); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("oversized result was cached (%d executions, want 2)", calls.Load())
	}
	if s.cache.Len() != 0 {
		t.Fatalf("cache holds %d entries, want 0", s.cache.Len())
	}
}

func TestSingleflightDedup(t *testing.T) {
	reg := &trace.Registry{}
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(Options{Registry: reg, Run: func(ctx context.Context, experiment string, scale harness.Scale, w io.Writer) error {
		calls.Add(1)
		close(started)
		<-release
		fmt.Fprintln(w, "joint output")
		return nil
	}})
	ctx := context.Background()
	req := RunRequest{Experiment: "shared", Scale: "smoke"}

	results := make(chan *Result, 2)
	errs := make(chan error, 2)
	go func() {
		r, err := s.Do(ctx, req)
		results <- r
		errs <- err
	}()
	<-started
	go func() {
		// Joins the in-flight run rather than starting a second one.
		r, err := s.Do(ctx, req)
		results <- r
		errs <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Get(trace.CtrServiceDedupJoined) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if r := <-results; r.Output != "joint output\n" {
			t.Fatalf("output %q", r.Output)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("run executed %d times, want 1", calls.Load())
	}
}

func TestAdmissionSheds(t *testing.T) {
	reg := &trace.Registry{}
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s := New(Options{MaxConcurrent: 1, MaxQueued: 1, Registry: reg,
		Run: func(ctx context.Context, experiment string, scale harness.Scale, w io.Writer) error {
			started <- struct{}{}
			select {
			case <-release:
				fmt.Fprintln(w, experiment)
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}})
	ctx := context.Background()

	var wg sync.WaitGroup
	errsByExp := make(map[string]chan error)
	for _, exp := range []string{"first", "second", "third"} {
		errsByExp[exp] = make(chan error, 1)
	}
	launch := func(exp string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Do(ctx, RunRequest{Experiment: exp})
			errsByExp[exp] <- err
		}()
	}
	launch("first")
	<-started // first holds the only run slot
	launch("second")
	deadline := time.Now().Add(5 * time.Second)
	for { // second occupies the single queue ticket
		s.mu.Lock()
		queued := len(s.queue)
		s.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	launch("third")
	err := <-errsByExp["third"]
	var over *OverloadedError
	if !errors.As(err, &over) {
		t.Fatalf("third request: %v, want OverloadedError", err)
	}
	if over.RetryAfter < time.Second || over.RetryAfter > 30*time.Second {
		t.Fatalf("RetryAfter %s outside [1s, 30s]", over.RetryAfter)
	}
	if shed := reg.Get(trace.CtrServiceShed); shed != 1 {
		t.Fatalf("service.shed = %g, want 1", shed)
	}
	close(release)
	for _, exp := range []string{"first", "second"} {
		if err := <-errsByExp[exp]; err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	wg.Wait()
}

func TestQueuedRequestHonorsCancellation(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := New(Options{MaxConcurrent: 1, MaxQueued: 4,
		Run: func(ctx context.Context, experiment string, scale harness.Scale, w io.Writer) error {
			started <- struct{}{}
			<-release
			return nil
		}})
	bg := context.Background()
	go s.Do(bg, RunRequest{Experiment: "holder"}) //nolint:errcheck
	<-started

	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	if _, err := s.Do(ctx, RunRequest{Experiment: "queued"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request: %v, want context.DeadlineExceeded", err)
	}
	close(release)
	if err := s.Close(bg); err != nil {
		t.Fatal(err)
	}
}

func TestDegradedResultsAreNotCached(t *testing.T) {
	reg := &trace.Registry{}
	var calls atomic.Int64
	s := New(Options{Registry: reg, Run: func(ctx context.Context, experiment string, scale harness.Scale, w io.Writer) error {
		calls.Add(1)
		fmt.Fprintln(w, "partial work before the panic")
		return fmt.Errorf("cell boom: %w", runner.ErrCellPanic)
	}})
	ctx := context.Background()
	req := RunRequest{Experiment: "flaky"}

	for i := 0; i < 2; i++ {
		res, err := s.Do(ctx, req)
		if err == nil {
			t.Fatal("degraded run reported success")
		}
		if !res.Degraded {
			t.Fatalf("run %d not marked degraded", i)
		}
		if !strings.Contains(res.Output, "partial work") {
			t.Fatalf("partial output lost: %q", res.Output)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("degraded result was cached (%d executions, want 2)", calls.Load())
	}
	if deg := reg.Get(trace.CtrServiceDegraded); deg != 2 {
		t.Fatalf("service.degraded = %g, want 2", deg)
	}
	if s.cache.Len() != 0 {
		t.Fatal("degraded result entered the cache")
	}
}

func TestCloseRefusesNewWork(t *testing.T) {
	s := New(Options{Run: countingRun(new(atomic.Int64), "out")})
	ctx := context.Background()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Do(ctx, RunRequest{Experiment: "late"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-Close Do: %v, want ErrDraining", err)
	}
}

// Runs with different seeds share no state: the faults sweep at seeds 1,
// 2 and 3, sent at once with room to run together, each match that
// seed's cold run. Run under -race this also proves no seed is shared
// between concurrent runs.
func TestCrossSeedRunsMatchColdRuns(t *testing.T) {
	bg := context.Background()
	seeds := []int64{1, 2, 3}
	cold := make([]string, len(seeds))
	for i, seed := range seeds {
		var buf bytes.Buffer
		if err := harness.Registry()["faults"].Run(harness.WithSeed(bg, seed), harness.ScaleSmoke, &buf); err != nil {
			t.Fatal(err)
		}
		cold[i] = buf.String()
	}
	if cold[0] == cold[1] {
		t.Fatal("seeds 1 and 2 render identically; the test cannot tell seeds apart")
	}

	s := New(Options{MaxConcurrent: 3})
	res := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = s.Do(bg, RunRequest{Experiment: "faults", Scale: "smoke", Seed: seed})
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", seed, errs[i])
		}
		if res[i].Output != cold[i] {
			t.Errorf("seed %d: service output differs from its cold run", seed)
		}
	}
}

// Requests with different seeds run concurrently: each run blocks until
// runs for two different seeds are in flight at once.
func TestDifferentSeedsOverlap(t *testing.T) {
	var mu sync.Mutex
	seen := map[int64]bool{}
	both := make(chan struct{})
	run := func(ctx context.Context, experiment string, scale harness.Scale, w io.Writer) error {
		seed := harness.SeedOf(ctx)
		mu.Lock()
		if !seen[seed] {
			seen[seed] = true
			if len(seen) == 2 {
				close(both)
			}
		}
		mu.Unlock()
		select {
		case <-both:
			fmt.Fprintf(w, "seed %d", seed)
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s := New(Options{Run: run})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, seed := range []int64{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Do(ctx, RunRequest{Experiment: "x", Seed: seed})
			if err != nil {
				t.Errorf("seed %d: %v (runs for different seeds never overlapped)", seed, err)
				return
			}
			if want := fmt.Sprintf("seed %d", seed); res.Output != want {
				t.Errorf("seed %d: run saw %q", seed, res.Output)
			}
		}()
	}
	wg.Wait()
}

// Characterizations outlive the request: roofline at seeds 1, 2 and 3,
// then table1, in one service, measure roofline's characterizations once,
// and every output equals its cold, memo-per-run registry run.
func TestCharacterizationsOutliveRequests(t *testing.T) {
	bg := context.Background()
	cold := func(exp string, seed int64) string {
		var buf bytes.Buffer
		if err := harness.Registry()[exp].Run(harness.WithMemo(harness.WithSeed(bg, seed), nil), harness.ScaleSmoke, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	s := New(Options{})
	measured := 0
	for _, req := range []RunRequest{
		{Experiment: "roofline", Seed: 1}, {Experiment: "roofline", Seed: 2},
		{Experiment: "roofline", Seed: 3}, {Experiment: "table1", Seed: 1},
	} {
		req.Scale = "smoke"
		res, err := s.Do(bg, req)
		if err != nil {
			t.Fatalf("%s seed %d: %v", req.Experiment, req.Seed, err)
		}
		if res.Cached {
			t.Fatalf("%s seed %d: served from the result cache, not run", req.Experiment, req.Seed)
		}
		if res.Output != cold(req.Experiment, req.Seed) {
			t.Errorf("%s seed %d: service output differs from its cold run", req.Experiment, req.Seed)
		}
		if req.Experiment != "roofline" {
			continue
		}
		if n := s.traits.Len(); measured == 0 {
			measured = n
		} else if n != measured {
			t.Errorf("roofline seed %d: table holds %d characterizations, %d after seed 1", req.Seed, n, measured)
		}
	}
	if measured == 0 {
		t.Fatal("roofline stored no characterization in the service's table")
	}
}

// BenchmarkDoMiss is one hetbenchd cache miss: Do of roofline at smoke
// scale under a seed no earlier request used, on a service one roofline
// request has warmed. Each op runs the experiment on a fresh run memo
// and reads its characterizations from the service's table. It is not a
// hotpath-suite leaf: a miss runs parallel runner cells, so its
// allocs/op moves with GOMAXPROCS and scheduling, and its ns/op spreads
// wider than the perf-delta gate between runs of one tree.
func BenchmarkDoMiss(b *testing.B) {
	s := New(Options{})
	ctx := context.Background()
	do := func(seed int64) {
		if _, err := s.Do(ctx, RunRequest{Experiment: "roofline", Scale: "smoke", Seed: seed}); err != nil {
			b.Fatal(err)
		}
	}
	do(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(int64(i) + 2)
	}
}
