package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// procTimeout bounds one child process; no op the benchmark starts comes
// near it, so hitting it means the program hung.
const procTimeout = 120 * time.Second

// procResult is one finished child process.
type procResult struct {
	Wall   time.Duration
	CPU    time.Duration // user + sys
	RSSKB  int64         // peak resident set
	Stdout []byte
	Stderr []byte
}

// runProc runs one of the built binaries with args from the repository
// root and waits for it to exit. A non-zero exit is an error carrying
// the child's stderr.
func (b *bench) runProc(ctx context.Context, name string, args ...string) (procResult, error) {
	ctx, cancel := context.WithTimeout(ctx, procTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(b.bin, name), args...)
	cmd.Dir = b.root
	cmd.Env = childEnv()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	r := procResult{Wall: time.Since(start), Stdout: out.Bytes(), Stderr: errb.Bytes()}
	if st := cmd.ProcessState; st != nil {
		r.CPU = st.UserTime() + st.SystemTime()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			r.RSSKB = ru.Maxrss
		}
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, bytes.TrimSpace(errb.Bytes()))
	}
	return r, nil
}

// childEnv is the benchmark's environment without HETBENCH_JOBS: every
// worker count is passed explicitly.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "HETBENCH_JOBS=") {
			env = append(env, kv)
		}
	}
	return env
}
