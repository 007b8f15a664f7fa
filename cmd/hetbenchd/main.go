// Command hetbenchd serves hetbench experiments over HTTP/JSON: a
// content-addressed result cache in front of the parallel runner, with
// singleflight dedup, bounded admission, end-to-end cancellation and a
// drain-on-signal shutdown. See internal/service for the API.
//
// Usage:
//
//	hetbenchd [-addr :8080] [-max-concurrent 2] [-max-queue 8]
//	          [-cache-mb 64] [-drain-timeout 30s] [-jobs N]
//	          [-pprof-addr localhost:6060]
//
// -pprof-addr serves the standard net/http/pprof handlers on a listener
// of their own (never on the service address) for as long as the daemon
// runs; it is off by default.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
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
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs > 0 {
		runner.SetJobs(*jobs)
	}

	d, err := listen(*addr, *pprofAddr, service.Options{
		MaxConcurrent: *maxConcurrent,
		MaxQueued:     *maxQueue,
		CacheBytes:    *cacheMB << 20,
	})
	if err != nil {
		log.Printf("hetbenchd: %v", err)
		return 1
	}
	log.Printf("hetbenchd listening on %s (max-concurrent=%d max-queue=%d cache=%dMiB)",
		d.ln.Addr(), *maxConcurrent, *maxQueue, *cacheMB)
	if d.prof != nil {
		log.Printf("hetbenchd: pprof on %s", d.profLn.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return d.serve(ctx, *drain)
}

// daemon is a listening hetbenchd: the service on its listener and, when
// profiling is on, net/http/pprof on a listener of its own.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	ln     net.Listener
	prof   *http.Server // nil unless -pprof-addr is set
	profLn net.Listener
}

// listen binds the service address and, when pprofAddr is set, the
// profiling address.
func listen(addr, pprofAddr string, opts service.Options) (*daemon, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &daemon{ln: ln}
	if pprofAddr != "" {
		if d.profLn, err = net.Listen("tcp", pprofAddr); err != nil {
			ln.Close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		d.prof = &http.Server{Handler: mux}
	}
	d.svc = service.New(opts)
	d.srv = &http.Server{Handler: d.svc.Handler()}
	return d, nil
}

// serve runs the daemon until ctx is done or a server fails, then drains:
// the service gets the drain grace for in-flight runs, the profiler is
// closed at once. It returns the process exit code.
func (d *daemon) serve(ctx context.Context, drain time.Duration) int {
	errc := make(chan error, 2)
	servers := 1
	go func() { errc <- d.srv.Serve(d.ln) }()
	if d.prof != nil {
		servers++
		go func() { errc <- d.prof.Serve(d.profLn) }()
	}

	failed := false
	select {
	case err := <-errc:
		log.Printf("hetbenchd: serve: %v", err)
		servers--
		failed = true
	case <-ctx.Done():
	}

	// Drain: stop accepting, give in-flight runs the grace period, then
	// cancel what remains and wait for it to unwind.
	log.Printf("hetbenchd: draining (up to %s)", drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	srvErr := d.srv.Shutdown(shutCtx)
	if d.prof != nil {
		d.prof.Close()
	}
	svcErr := d.svc.Close(shutCtx)
	for ; servers > 0; servers-- {
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("hetbenchd: serve: %v", err)
			failed = true
		}
	}
	if failed {
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
