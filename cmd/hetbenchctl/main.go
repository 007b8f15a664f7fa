// Command hetbenchctl is hetbenchd's client: submit one experiment run
// (with retries, backoff and Retry-After honored), generate load with
// optional chaos cancellations, or dump the daemon's metrics.
//
// Usage:
//
//	hetbenchctl -addr http://localhost:8080 -exp table1 -scale small [-seed 1] [-timeout-ms 0]
//	hetbenchctl -addr ... -loadgen [-n 40] [-c 4] [-exps table1,table2] [-chaos-cancel 0.2]
//	hetbenchctl -addr ... -loadgen -arrivals poisson -rate 50
//	hetbenchctl -addr ... -metricz
//
// -arrivals replays a seeded fleet arrival trace (poisson or bursty)
// against the live daemon: the same generator that drives `hetbench
// -exp fleet` paces the requests open-loop, so simulated and measured
// tail latency come from identical workloads.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"hetbench/internal/fleet"
	"hetbench/internal/service"
	"hetbench/internal/service/client"

	"flag"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hetbenchctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://localhost:8080", "hetbenchd base URL")
	exp := fs.String("exp", "table2", "experiment id for a single run")
	scale := fs.String("scale", "smoke", "scale (smoke|small|default|paper)")
	seed := fs.Int64("seed", 1, "run seed")
	timeoutMs := fs.Int64("timeout-ms", 0, "server-side run budget (0 = none)")
	attempts := fs.Int("attempts", 4, "max attempts per request")
	loadgen := fs.Bool("loadgen", false, "load-generator mode")
	n := fs.Int("n", 40, "loadgen: total requests")
	c := fs.Int("c", 4, "loadgen: concurrent workers")
	exps := fs.String("exps", "", "loadgen: comma-separated experiment ids (default: -exp)")
	chaosCancel := fs.Float64("chaos-cancel", 0, "loadgen: fraction of requests canceled mid-run")
	chaosAfter := fs.Duration("chaos-after", time.Millisecond, "loadgen: chaos requests' lifetime")
	arrivals := fs.String("arrivals", "none", "loadgen: open-loop arrival trace (none|poisson|bursty), seeded by -seed")
	rate := fs.Float64("rate", 50, "loadgen: mean arrival rate in requests/sec for -arrivals")
	metricz := fs.Bool("metricz", false, "print the daemon's /metricz counters as 'name value' lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *metricz {
		return dumpMetricz(ctx, *addr, stdout, stderr)
	}

	cl := client.New(*addr, client.Config{MaxAttempts: *attempts, Seed: *seed})
	if *loadgen {
		offsets, err := buildArrivals(*arrivals, *n, *rate, *seed)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		mix := buildMix(*exps, *exp, *scale, *seed)
		rep, err := cl.Loadgen(ctx, client.LoadgenOptions{
			Requests:       *n,
			Concurrency:    *c,
			Mix:            mix,
			CancelFraction: *chaosCancel,
			CancelAfter:    *chaosAfter,
			Seed:           *seed,
			Arrivals:       offsets,
		})
		if rep != nil {
			if _, werr := rep.WriteTo(stdout); werr != nil {
				fmt.Fprintln(stderr, werr)
				return 1
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if rep.Errors > 0 {
			fmt.Fprintf(stderr, "hetbenchctl: %d requests failed\n", rep.Errors)
			return 1
		}
		return 0
	}

	res, err := cl.Run(ctx, service.RunRequest{
		Experiment: *exp, Scale: *scale, Seed: *seed, TimeoutMs: *timeoutMs,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "key=%s cached=%v\n", res.Key, res.Cached)
	fmt.Fprint(stdout, res.Output)
	return 0
}

// buildArrivals turns -arrivals/-rate into open-loop dispatch offsets
// using the fleet trace generator, so the live daemon sees the same
// seeded arrival process the cluster simulator does. "none" keeps the
// classic closed-loop worker pool.
func buildArrivals(shape string, n int, rate float64, seed int64) ([]time.Duration, error) {
	if shape == "" || shape == "none" {
		return nil, nil
	}
	sh, err := fleet.ParseShape(shape)
	if err != nil {
		return nil, fmt.Errorf("-arrivals: %w", err)
	}
	spec := fleet.TraceSpec{Shape: sh, Jobs: n, RatePerSec: rate, Seed: seed}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("-arrivals: %w", err)
	}
	return fleet.ArrivalOffsets(spec), nil
}

// buildMix expands -exps into the loadgen request pool.
func buildMix(exps, exp, scale string, seed int64) []service.RunRequest {
	ids := []string{exp}
	if exps != "" {
		ids = strings.Split(exps, ",")
	}
	mix := make([]service.RunRequest, 0, len(ids))
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		mix = append(mix, service.RunRequest{Experiment: id, Scale: scale, Seed: seed})
	}
	return mix
}

// dumpMetricz flattens /metricz to greppable "name value" lines.
func dumpMetricz(ctx context.Context, addr string, stdout, stderr io.Writer) int {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metricz", nil)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer resp.Body.Close()
	var m service.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	names := make([]string, 0, len(m.Counters))
	for k := range m.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%s %g\n", k, m.Counters[k])
	}
	qs := make([]string, 0, len(m.RequestNs))
	for k := range m.RequestNs {
		qs = append(qs, k)
	}
	sort.Strings(qs)
	for _, k := range qs {
		fmt.Fprintf(stdout, "request.ns.%s %g\n", k, m.RequestNs[k])
	}
	fmt.Fprintf(stdout, "goroutines %d\n", m.Goroutines)
	fmt.Fprintf(stdout, "cache.len %d\n", m.CacheLen)
	fmt.Fprintf(stdout, "traits.len %d\n", m.TraitsLen)
	return 0
}
