package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"hetbench/internal/service"
)

func status(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// The service address never serves /debug/pprof/, with or without
// -pprof-addr; with it, the profiler answers on its own listener, and
// both listeners shut down with the daemon.
func TestPprofOnlyOnItsOwnListener(t *testing.T) {
	for _, pprofAddr := range []string{"", "127.0.0.1:0"} {
		d, err := listen("127.0.0.1:0", pprofAddr, service.Options{MaxConcurrent: 1, MaxQueued: 1})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan int)
		go func() { done <- d.serve(ctx, time.Second) }()

		svcURL := "http://" + d.ln.Addr().String()
		if code := status(t, svcURL+"/healthz"); code != http.StatusOK {
			t.Errorf("pprof-addr %q: /healthz = %d, want 200", pprofAddr, code)
		}
		if code := status(t, svcURL+"/debug/pprof/"); code != http.StatusNotFound {
			t.Errorf("pprof-addr %q: service /debug/pprof/ = %d, want 404", pprofAddr, code)
		}
		if pprofAddr == "" && d.prof != nil {
			t.Error("profiler listening without -pprof-addr")
		}
		if pprofAddr != "" {
			profURL := "http://" + d.profLn.Addr().String()
			for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/goroutine?debug=1"} {
				if code := status(t, profURL+path); code != http.StatusOK {
					t.Errorf("profiler %s = %d, want 200", path, code)
				}
			}
		}

		cancel()
		if code := <-done; code != 0 {
			t.Errorf("pprof-addr %q: daemon exited %d, want 0", pprofAddr, code)
		}
		if pprofAddr != "" {
			if _, err := http.Get("http://" + d.profLn.Addr().String() + "/debug/pprof/"); err == nil {
				t.Error("profiler still answering after shutdown")
			}
		}
	}
}

// A -pprof-addr that cannot be bound (here: already in use) fails the
// daemon at start-up.
func TestBusyPprofAddrFails(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if code := run([]string{"-addr", "127.0.0.1:0", "-pprof-addr", busy.Addr().String()}); code != 1 {
		t.Errorf("busy -pprof-addr: exit %d, want 1", code)
	}
}
