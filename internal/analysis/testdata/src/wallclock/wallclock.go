// Package wallclock is the fixture for the flow rule of hetlint's
// determinism pass: a helper that reads time.Now/Since taints every value
// flowing from it, and the flow rule reports the laundered values where
// they reach returns and ordered result output. The direct reads are
// reported where they happen.
package wallclock

import (
	"fmt"
	"io"
	"time"
)

// elapsed reads the wall clock directly. The flow rule's contribution is
// tainting elapsed so its callers below are caught.
func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time.Since reads the wall clock`
}

func viaLocal(start time.Time) time.Duration {
	d := time.Since(start) // want `time.Since reads the wall clock`
	return d               // want `return value derives from the wall clock through d`
}

func viaHelper(start time.Time) time.Duration {
	return elapsed(start) // want `return value derives from the wall clock through elapsed`
}

func viaChain(start time.Time) float64 {
	ms := float64(viaLocal(start).Milliseconds())
	return ms // want `return value derives from the wall clock through ms`
}

// twoCarriers names the first carrier the value meets.
func twoCarriers(start time.Time) time.Duration {
	first := elapsed(start)
	second := elapsed(start)
	return first + second // want `return value derives from the wall clock through first;`
}

func report(w io.Writer, start time.Time) {
	fmt.Fprintf(w, "took %v\n", elapsed(start)) // want `fmt.Fprintf argument derives from the wall clock through elapsed`
}

func named(start time.Time) (d time.Duration) {
	d = elapsed(start)
	return // want `return carries a wall-clock-derived value`
}

// cleanVirtual works purely in virtual time: no taint, no finding.
func cleanVirtual(nowNS int64) int64 {
	d := nowNS + 5
	return d
}

// sideEffectOnly calls a tainted helper but never lets the value reach a
// result path, so the flow rule stays quiet.
func sideEffectOnly(start time.Time) {
	_ = elapsed(start)
}

// allowedStamp reads the wall clock under a suppression. The directive
// silences only this read: the callers that launder the value into a
// return or into output are still reported.
func allowedStamp() time.Time {
	return time.Now() //hetlint:allow detnondet fixture: a suppressed read still taints its callers
}

func returnsAllowed() time.Time {
	return allowedStamp() // want `return value derives from the wall clock through allowedStamp`
}

func printsAllowed(w io.Writer) {
	fmt.Fprintf(w, "at %v\n", allowedStamp()) // want `fmt.Fprintf argument derives from the wall clock through allowedStamp`
}
