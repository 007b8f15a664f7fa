// Package directives exercises hetlint's reporting about the
// //hetlint:allow directives themselves: every problem with a
// suppression is a finding of the "directive" pseudo-analyzer, so a
// suppression can never rot silently. The `// want+` markers anchor each
// expectation to the directive comment on the following line.
package directives

import "time"

// allowedClock is the well-formed, used directive: it suppresses the
// detnondet finding and draws no report of its own.
func allowedClock() time.Time {
	return time.Now() //hetlint:allow detnondet fixture exercises a valid suppression
}

func clean() {}

// want+ `\[directive\] unused //hetlint:allow detnondet directive: no detnondet finding`
//hetlint:allow detnondet nothing nearby is flagged

// want+ `\[directive\] //hetlint:allow names unknown analyzer "detnodnet"`
//hetlint:allow detnodnet suppress the typo analyzer

// want+ `\[directive\] //hetlint:allow ctxflow has no reason`
//hetlint:allow ctxflow

// A directive naming a deleted analyzer is as unknown as a typo.
// want+ `\[directive\] //hetlint:allow names unknown analyzer "spanleak"`
//hetlint:allow spanleak span closed by a deferred End

// want+ `\[directive\] unknown hetlint directive "forbid"`
//hetlint:forbid detnondet no such verb
