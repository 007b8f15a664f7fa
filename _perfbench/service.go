package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hetbench/internal/harness/runner"
	"hetbench/internal/service"
	"hetbench/internal/service/client"
)

// The request script's shape, per block of blockSteps steps. One step
// of each block is a pair step: both clients send the same fresh key at
// once, so one leads the run and the other joins it. On missesPerBlock
// other steps, chosen per client, the client sends a miss under its own
// fresh seed; every remaining request is a hit. Positions are seeded
// but the counts are exact, so a client's requests are 5% misses in
// every block whatever the seed, and hits walk the warm set in seeded
// shuffled rounds.
const (
	blockSteps     = 100
	missesPerBlock = 4
	// missExp is the experiment misses run: five runner cells, one per
	// app on the dGPU, ~0.15 s at smoke scale. Its output and its cost do
	// not depend on the seed, so every miss does the same work and must
	// print the warm set's bytes for it.
	missExp   = "roofline"
	warmScale = "smoke"
)

// warmExps is the warm set: smoke-scale outputs from table3's size up to
// fig9's.
var warmExps = []string{
	"table1", "table2", "table3", "table4", "fig11", "fig9", "hc",
	"tiles", "dataregion", "gridtype", "roofline", "energy", "scaling",
}

type reqKind int

const (
	kindHit reqKind = iota
	kindMiss
	kindPair
)

// scripted is one request of the script.
type scripted struct {
	Kind reqKind
	Req  service.RunRequest
}

// script is the seeded request sequence of the two clients. Step i holds
// one request per client; steps are generated a block at a time, on
// demand and in order, so the sequence depends on the seed alone.
type script struct {
	warm     []service.RunRequest
	missBase int64

	mu    sync.Mutex
	rng   *rand.Rand
	steps [][2]scripted
	hits  [2][]int // each client's remaining round of warm-set indices
}

func newScript(seed int64) *script {
	s := &script{
		rng: rand.New(rand.NewSource(seed)),
		// Fresh seeds live far above the warm set's seed.
		missBase: expSeed(seed) * 10_000_000,
	}
	for _, exp := range warmExps {
		s.warm = append(s.warm, service.RunRequest{Experiment: exp, Scale: warmScale, Seed: expSeed(seed)})
	}
	return s
}

// miss is a request for missExp under seed.
func (s *script) miss(seed int64) service.RunRequest {
	return service.RunRequest{Experiment: missExp, Scale: warmScale, Seed: seed}
}

// probeSeed is the i'th fresh seed for the traced run's probes, disjoint
// from the script's.
func (s *script) probeSeed(i int) int64 { return s.missBase - 1 - int64(i) }

// at returns step i.
func (s *script) at(i int) [2]scripted {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.steps) <= i {
		s.addBlock()
	}
	return s.steps[i]
}

// addBlock appends one block of steps.
func (s *script) addBlock() {
	base := len(s.steps)
	block := make([][2]scripted, blockSteps)
	pair := s.rng.Intn(blockSteps)
	r := s.miss(s.missBase + 2*int64(base+pair))
	block[pair] = [2]scripted{{kindPair, r}, {kindPair, r}}
	for c := 0; c < 2; c++ {
		misses := 0
		for _, j := range s.rng.Perm(blockSteps) {
			switch {
			case j == pair:
			case misses < missesPerBlock:
				block[j][c] = scripted{kindMiss, s.miss(s.missBase + 2*int64(base+j) + int64(c))}
				misses++
			default:
				block[j][c] = scripted{kindHit, s.nextHit(c)}
			}
		}
	}
	s.steps = append(s.steps, block...)
}

// nextHit draws client c's next warm key from its current shuffled round.
func (s *script) nextHit(c int) service.RunRequest {
	if len(s.hits[c]) == 0 {
		s.hits[c] = s.rng.Perm(len(s.warm))
	}
	k := s.hits[c][0]
	s.hits[c] = s.hits[c][1:]
	return s.warm[k]
}

// svcEnv is one in-process hetbenchd on a loopback listener, with the
// cold outputs of its pre-filled warm set.
type svcEnv struct {
	svc    *service.Service
	srv    *http.Server
	base   string
	served chan error
	// cold maps each warm key (service.Key) to its pre-fill Output.
	cold     map[string]string
	warmSeed int64
}

// startService builds a service with the daemon's defaults, serves its
// Handler on loopback and pre-fills the warm set through HTTP.
func startService(ctx context.Context, warm []service.RunRequest) (*svcEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Options{})
	e := &svcEnv{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		cold:   map[string]string{},
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	cl, done := e.client()
	defer done()
	for _, r := range warm {
		res, err := cl.Run(ctx, r)
		if err == nil && (res.Degraded || res.Cached) {
			err = fmt.Errorf("pre-fill %s: degraded %v, cached %v", r.Experiment, res.Degraded, res.Cached)
		}
		if err != nil {
			e.close()
			return nil, err
		}
		e.cold[service.Key(r)] = res.Output
		e.warmSeed = r.Seed
	}
	return e, nil
}

// client returns a client that never retries, so a 429 or 5xx reaches
// the benchmark as a failed op, and a func releasing its connections.
func (e *svcEnv) client() (*client.Client, func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	return client.New(e.base, client.Config{HTTP: &http.Client{Transport: tr}, MaxAttempts: 1}),
		tr.CloseIdleConnections
}

// close stops the server and drains the service, waiting for both.
func (e *svcEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := e.srv.Shutdown(ctx)
	if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(herr, e.svc.Close(ctx))
}

// rendezvous lets the two clients send a pair step's request together.
type rendezvous struct {
	mu      sync.Mutex
	waiting map[int]chan struct{}
}

// meet blocks until the other client reaches the same step; false if
// stop closed first.
func (r *rendezvous) meet(step int, stop <-chan struct{}) bool {
	r.mu.Lock()
	if ch, ok := r.waiting[step]; ok {
		delete(r.waiting, step)
		r.mu.Unlock()
		close(ch)
		return true
	}
	ch := make(chan struct{})
	r.waiting[step] = ch
	r.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-stop:
		return false
	}
}

// loadResult is what the two clients saw.
type loadResult struct {
	Hits, Misses []float64 // client-side latency, ms
	Attempted    int
	Failures     []string
	Elapsed      time.Duration
	CPU          time.Duration // process user+sys over the load
}

// All is every successful request's latency.
func (l loadResult) All() []float64 { return append(append([]float64(nil), l.Hits...), l.Misses...) }

// clientLog is one client's share of a loadResult.
type clientLog struct {
	hits, misses []float64
	attempted    int
	failures     []string
}

// load runs the two closed-loop clients through the script for d. Each
// client sends its next request only after the previous reply, and stops
// at the first step boundary after d; requests in flight then complete.
func (e *svcEnv) load(ctx context.Context, sc *script, d time.Duration) loadResult {
	stop := make(chan struct{})
	rv := &rendezvous{waiting: map[int]chan struct{}{}}
	var logs [2]clientLog
	cpu0 := processCPU()
	start := time.Now()
	timer := time.AfterFunc(d, func() { close(stop) })
	defer timer.Stop()

	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, done := e.client()
			defer done()
			lg := &logs[c]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := sc.at(i)[c]
				if s.Kind == kindPair && !rv.meet(i, stop) {
					return
				}
				lg.attempted++
				t0 := time.Now()
				res, err := cl.Run(ctx, s.Req)
				lat := ms(time.Since(t0))
				if err == nil {
					err = e.check(s, res)
				}
				if err != nil {
					lg.failures = append(lg.failures, fmt.Sprintf("%s seed %d: %v", s.Req.Experiment, s.Req.Seed, err))
					continue
				}
				if s.Kind == kindHit {
					lg.hits = append(lg.hits, lat)
				} else {
					lg.misses = append(lg.misses, lat)
				}
			}
		}(c)
	}
	wg.Wait()
	res := loadResult{Elapsed: time.Since(start), CPU: processCPU() - cpu0}
	for _, lg := range logs {
		res.Hits = append(res.Hits, lg.hits...)
		res.Misses = append(res.Misses, lg.misses...)
		res.Attempted += lg.attempted
		res.Failures = append(res.Failures, lg.failures...)
	}
	return res
}

// check validates one reply: never degraded, and exactly the cold run's
// bytes for its key or, for a miss, for missExp in the warm set.
func (e *svcEnv) check(s scripted, res *service.Result) error {
	if res.Degraded {
		return fmt.Errorf("degraded: %s", res.Err)
	}
	want := s.Req
	if s.Kind != kindHit {
		want.Seed = e.warmSeed
	}
	if res.Output != e.cold[service.Key(want)] {
		return fmt.Errorf("output differs from the cold run of %s", want.Experiment)
	}
	return nil
}

// runService is the service workload: set-up builds and pre-fills a
// fresh service three times and keeps the last; the two clients then
// run the script until the time is up.
func runService(ctx context.Context, b *bench) error {
	runner.SetJobs(b.jobs)
	sc := newScript(b.seed)
	var setup []float64
	var env *svcEnv
	for i := 0; i < 3; i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		t0 := time.Now()
		var err error
		if env, err = startService(ctx, sc.warm); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	b.set("setup_s", median(setup), len(setup))

	// Memory is the load's, not set-up's, and is read as the 90th
	// percentile of the resident set sampled every 50 ms: the process's
	// all-time peak depends on where a few GC cycles fell and swings by a
	// sixth from run to run.
	runtime.GC()
	debug.FreeOSMemory()
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64)
	go func() { rssDone <- sampleRSS(50*time.Millisecond, stopRSS) }()
	ld := env.load(ctx, sc, b.dur)
	close(stopRSS)
	rss := <-rssDone
	if err := env.close(); err != nil {
		return err
	}
	b.attempted += ld.Attempted
	for _, f := range ld.Failures {
		b.fail("%s", f)
	}
	all := ld.All()
	b.setTiming("op_ms", all)
	b.set("ops_per_s", float64(len(all))/ld.Elapsed.Seconds(), len(all))
	b.set("cpu_ms_per_op", ms(ld.CPU)/float64(ld.Attempted), ld.Attempted)
	if len(rss) == 0 {
		return fmt.Errorf("could not read the resident set from /proc/self/statm")
	}
	b.set("peak_rss_mb", quantile(rss, 0.9), len(rss))
	// The hit/miss split is reported beside the metrics; the traced run
	// carries it as per-layer metrics.
	b.setTiming("service.hit_p50_ms", ld.Hits)
	b.setTiming("service.miss_p50_ms", ld.Misses)
	return nil
}

// processCPU is this process's user+sys time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleRSS reads this process's resident set every period until stop
// closes and returns the samples in MB.
func sampleRSS(period time.Duration, stop <-chan struct{}) []float64 {
	page := float64(os.Getpagesize()) / (1 << 20)
	t := time.NewTicker(period)
	defer t.Stop()
	var out []float64
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
		}
		data, err := os.ReadFile("/proc/self/statm")
		if err != nil {
			continue
		}
		f := strings.Fields(string(data))
		if len(f) < 2 {
			continue
		}
		if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
			out = append(out, pages*page)
		}
	}
}
