// Package service is hetbenchd's core: it runs harness experiments on
// the parallel runner behind a content-addressed result cache, with
// singleflight deduplication of identical in-flight requests, a bounded
// admission queue that sheds load, and cancellation plumbed end-to-end —
// a request's context reaches cell execution, so client disconnects and
// per-request deadlines abort simulation work instead of orphaning it.
//
// Failure containment follows the runner's contract: a panicking cell
// fails its own run (marked degraded here) while the worker pool and the
// daemon keep serving; only clean, non-degraded results enter the cache,
// and the golden suite's determinism contract makes a cache hit
// bit-identical to a cold run of the same (experiment, scale, seed).
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"hetbench/internal/harness"
	"hetbench/internal/harness/runner"
	"hetbench/internal/trace"
)

// RunFunc executes one experiment. It reads the request's seed with
// harness.SeedOf(ctx). The default implementation resolves the id in
// harness.Registry; chaos tests inject their own.
type RunFunc func(ctx context.Context, experiment string, scale harness.Scale, w io.Writer) error

// Options configures a Service. The zero value is usable: two concurrent
// runs, eight queued, a 64 MB cache, runs resolved from the harness
// registry.
type Options struct {
	// MaxConcurrent bounds in-flight experiment runs (not HTTP
	// connections); <= 0 means 2. Each run already parallelizes
	// internally over the runner's worker pool, which concurrent runs
	// share.
	MaxConcurrent int
	// MaxQueued bounds requests waiting for a run slot; beyond it the
	// service sheds with ErrOverloaded. <= 0 means 8.
	MaxQueued int
	// CacheBytes bounds the result cache's output bytes; <= 0 means 64 MB.
	CacheBytes int64
	// Run overrides experiment execution (tests); nil uses the registry.
	Run RunFunc
	// Registry receives the service.* counters and the request-latency
	// histogram; nil allocates a private one.
	Registry *trace.Registry
}

// Service is the daemon core. Create with New; Close drains it.
type Service struct {
	opts Options
	reg  *trace.Registry

	cache *resultCache
	sem   chan struct{} // admission slots, cap MaxConcurrent
	queue chan struct{} // queue tickets, cap MaxQueued

	mu      sync.Mutex
	flights map[string]*flight

	inflight sync.WaitGroup
	draining atomic.Bool
}

// Sentinel errors the HTTP layer maps to statuses.
var (
	// ErrDraining rejects new work during graceful shutdown (503).
	ErrDraining = errors.New("service: draining")
	// ErrUnknownExperiment rejects ids missing from the registry (400).
	ErrUnknownExperiment = errors.New("service: unknown experiment")
)

// OverloadedError sheds a request when the admission queue is full
// (429); RetryAfter is the suggested backoff.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("service: overloaded, retry after %s", e.RetryAfter)
}

// RunRequest identifies one experiment run. Jobs is deliberately absent:
// the runner's determinism contract makes output independent of worker
// count, so it is not part of a result's identity.
type RunRequest struct {
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"` // smoke|small|default|paper; "" = default
	Seed       int64  `json:"seed"`  // 0 = 1, the documented default
	// TimeoutMs bounds the run server-side (0 = none); the client's
	// disconnect cancels regardless.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// normalize applies defaulting shared by hashing and execution.
func (r RunRequest) normalize() RunRequest {
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Scale == "" {
		r.Scale = "default"
	}
	return r
}

// Key is the content address of a request's result: a hex SHA-256 over
// the identity fields (experiment, scale, seed — never the timeout).
func Key(r RunRequest) string {
	r = r.normalize()
	h := sha256.Sum256([]byte(fmt.Sprintf("hetbench/v1|%s|%s|%d", r.Experiment, r.Scale, r.Seed)))
	return hex.EncodeToString(h[:])
}

// Result is one completed (or degraded) run.
type Result struct {
	Key        string `json:"key"`
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"`
	Seed       int64  `json:"seed"`
	// Cached marks this response as served from the result cache; the
	// Output bytes are identical to the cold run's.
	Cached bool `json:"cached"`
	// Degraded marks a run in which a cell panicked: Output holds the
	// error-free prefix, Err the recovered panic. Degraded results are
	// never cached.
	Degraded bool   `json:"degraded,omitempty"`
	Err      string `json:"error,omitempty"`
	Output   string `json:"output"`
}

// flight is one in-progress run shared by all requests with its key.
type flight struct {
	done    chan struct{}
	res     *Result
	err     error
	waiters int                // requests still attached; 0 cancels the run
	cancel  context.CancelFunc // set once the run goroutine starts
}

// New builds a Service from opts.
func New(opts Options) *Service {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 2
	}
	if opts.MaxQueued <= 0 {
		opts.MaxQueued = 8
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 64 << 20
	}
	reg := opts.Registry
	if reg == nil {
		reg = &trace.Registry{}
	}
	return &Service{
		opts:    opts,
		reg:     reg,
		cache:   newResultCache(opts.CacheBytes, reg),
		sem:     make(chan struct{}, opts.MaxConcurrent),
		queue:   make(chan struct{}, opts.MaxQueued),
		flights: make(map[string]*flight),
	}
}

// Registry returns the service's metrics registry.
func (s *Service) Registry() *trace.Registry { return s.reg }

// Do runs (or joins, or serves from cache) the request. It returns as
// soon as ctx is done — the underlying run keeps going while any other
// request is attached to it, and is canceled when the last one leaves.
func (s *Service) Do(ctx context.Context, req RunRequest) (*Result, error) {
	start := time.Now() //hetlint:allow detnondet request latency is service telemetry, never experiment output
	defer func() {
		s.reg.Observe(trace.HistServiceRequestNs, float64(time.Since(start))) //hetlint:allow detnondet request latency is service telemetry, never experiment output
	}()
	s.reg.Add(trace.CtrServiceRequests, 1)

	if s.draining.Load() {
		return nil, ErrDraining
	}
	req = req.normalize()
	if _, err := harness.ParseScale(req.Scale); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownExperiment, err)
	}
	if s.opts.Run == nil {
		if _, ok := harness.Registry()[req.Experiment]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownExperiment, req.Experiment)
		}
	}
	key := Key(req)

	if res, ok := s.cache.get(key); ok {
		s.reg.Add(trace.CtrServiceCacheHits, 1)
		hit := *res
		hit.Cached = true
		return &hit, nil
	}

	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		f.waiters++
		s.mu.Unlock()
		s.reg.Add(trace.CtrServiceDedupJoined, 1)
		return s.wait(ctx, f)
	}
	f := &flight{done: make(chan struct{}), waiters: 1}
	s.flights[key] = f
	s.mu.Unlock()
	s.reg.Add(trace.CtrServiceCacheMisses, 1)

	if err := s.admit(ctx); err != nil {
		s.finishFlight(key, f, nil, err)
		return nil, err
	}

	// The run outlives any one request: it completes for whoever is still
	// attached, so its context derives from the request's values but not
	// its cancellation — the flight refcount cancels it instead.
	runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	s.mu.Lock()
	f.cancel = cancel
	s.mu.Unlock()
	s.inflight.Add(1)
	go func() {
		defer s.inflight.Done()
		defer cancel()
		defer func() { <-s.sem }()
		res, err := s.execute(runCtx, key, req)
		s.finishFlight(key, f, res, err)
	}()
	return s.wait(ctx, f)
}

// admit takes a run slot, queueing up to MaxQueued waiters and shedding
// beyond that. The queue channel's buffer is the ticket pool: a full
// buffer means MaxQueued requests are already waiting.
func (s *Service) admit(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	select {
	case s.queue <- struct{}{}:
	default:
		s.reg.Add(trace.CtrServiceShed, 1)
		return &OverloadedError{RetryAfter: s.retryAfter()}
	}
	defer func() { <-s.queue }()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.reg.Add(trace.CtrServiceCanceled, 1)
		return ctx.Err()
	}
}

// retryAfter estimates when shed load should come back: queue depth
// times the median request latency, clamped to [1s, 30s].
func (s *Service) retryAfter() time.Duration {
	p50 := time.Second
	if h := s.reg.Hist(trace.HistServiceRequestNs); h != nil && h.Count() > 0 {
		p50 = time.Duration(h.Quantile(0.5))
	}
	d := p50 * time.Duration(len(s.queue)+1)
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// wait blocks until the flight completes or ctx is done. A departing
// request detaches; the last one out cancels the run.
func (s *Service) wait(ctx context.Context, f *flight) (*Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		s.mu.Lock()
		f.waiters--
		if f.waiters == 0 && f.cancel != nil {
			f.cancel()
		}
		s.mu.Unlock()
		s.reg.Add(trace.CtrServiceCanceled, 1)
		return nil, ctx.Err()
	}
}

// finishFlight publishes the outcome and retires the key. The map delete
// and channel close happen under one lock acquisition, so no request can
// join a completed flight.
func (s *Service) finishFlight(key string, f *flight, res *Result, err error) {
	s.mu.Lock()
	f.res, f.err = res, err
	delete(s.flights, key)
	close(f.done)
	s.mu.Unlock()
}

// execute runs the experiment with the request's seed on its context and
// classifies the outcome. Runs with different seeds share no state, so
// they proceed concurrently. Only clean results are cached.
func (s *Service) execute(ctx context.Context, key string, req RunRequest) (*Result, error) {
	scale, _ := harness.ParseScale(req.Scale)
	run := s.opts.Run
	if run == nil {
		run = registryRun
	}
	var buf bytes.Buffer
	// A fresh run memo per request: the daemon retains nothing between
	// runs beyond the result cache.
	err := run(harness.WithMemo(harness.WithSeed(ctx, req.Seed)), req.Experiment, scale, &buf)
	res := &Result{
		Key: key, Experiment: req.Experiment, Scale: req.Scale, Seed: req.Seed,
		Output: buf.String(),
	}
	if err != nil {
		s.reg.Add(trace.CtrServiceErrors, 1)
		res.Err = err.Error()
		if errors.Is(err, runner.ErrCellPanic) {
			s.reg.Add(trace.CtrServiceDegraded, 1)
			res.Degraded = true
		}
		return res, err
	}
	s.cache.put(key, res)
	return res, nil
}

// registryRun is the default RunFunc: resolve and run a harness
// experiment.
func registryRun(ctx context.Context, experiment string, scale harness.Scale, w io.Writer) error {
	e, ok := harness.Registry()[experiment]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownExperiment, experiment)
	}
	return e.Run(ctx, scale, w)
}

// Close drains the service: new requests fail with ErrDraining, in-flight
// runs get until ctx's deadline to finish, then are canceled and awaited.
// Returns nil on a clean drain, ctx.Err() if runs had to be canceled.
func (s *Service) Close(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for _, f := range s.flights {
		if f.cancel != nil {
			f.cancel()
		}
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}
