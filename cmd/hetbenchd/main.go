// Command hetbenchd serves hetbench experiments over HTTP/JSON: a
// content-addressed result cache in front of the parallel runner, with
// singleflight dedup, bounded admission, end-to-end cancellation and a
// drain-on-signal shutdown. See internal/service for the API.
//
// Usage:
//
//	hetbenchd [-addr :8080] [-max-concurrent 2] [-max-queue 8]
//	          [-cache-mb 64] [-drain-timeout 30s] [-jobs N]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hetbench/internal/harness/runner"
	"hetbench/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("hetbenchd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxConcurrent := fs.Int("max-concurrent", 2, "in-flight experiment runs")
	maxQueue := fs.Int("max-queue", 8, "queued requests before shedding 429s")
	cacheMB := fs.Int64("cache-mb", 64, "result cache budget in MiB")
	drain := fs.Duration("drain-timeout", 30*time.Second, "grace for in-flight runs at shutdown")
	jobs := fs.Int("jobs", 0, "runner workers, shared by all in-flight runs (0 = leave default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs > 0 {
		runner.SetJobs(*jobs)
	}

	svc := service.New(service.Options{
		MaxConcurrent: *maxConcurrent,
		MaxQueued:     *maxQueue,
		CacheBytes:    *cacheMB << 20,
	})
	srv := &http.Server{Addr: *addr, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("hetbenchd listening on %s (max-concurrent=%d max-queue=%d cache=%dMiB)",
		*addr, *maxConcurrent, *maxQueue, *cacheMB)

	select {
	case err := <-errc:
		log.Printf("hetbenchd: serve: %v", err)
		return 1
	case <-ctx.Done():
	}

	// Drain: stop accepting, give in-flight runs the grace period, then
	// cancel what remains and wait for it to unwind.
	log.Printf("hetbenchd: draining (up to %s)", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	srvErr := srv.Shutdown(shutCtx)
	svcErr := svc.Close(shutCtx)
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("hetbenchd: serve: %v", err)
		return 1
	}
	if srvErr != nil || svcErr != nil {
		log.Printf("hetbenchd: forced drain (server: %v, service: %v)", srvErr, svcErr)
		fmt.Fprintln(os.Stderr, "hetbenchd: drain deadline exceeded; in-flight runs were canceled")
		return 1
	}
	log.Printf("hetbenchd: drained cleanly")
	return 0
}
