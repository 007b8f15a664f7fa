package analysis_test

import (
	"strings"
	"testing"

	"hetbench/internal/analysis"
)

// FuzzAllowDirective hammers the //hetlint:allow parser with arbitrary
// comment text: whatever the input, parsing must be total (no panics),
// deterministic, and hold the grammar's invariants — non-directives
// return pure zero values, a problem diagnostic excludes a parsed
// analyzer, the analyzer token never contains spaces, and the reason is
// space-trimmed.
func FuzzAllowDirective(f *testing.F) {
	for _, seed := range []string{
		"//hetlint:allow detnondet pool wall-clock stats are reported, never part of results",
		"//hetlint:allow spanleak",
		"//hetlint:allow spanleak ",
		"//hetlint:allow detnodnet misspelled analyzer",
		"//hetlint:allow",
		"//hetlint:",
		"//hetlint:forbid detnondet no such verb",
		"//hetlint:allow counterkey  double  spaced  reason",
		"// an ordinary comment",
		"//hetlint:allow detnondet причина по-русски",
		"//hetlint:allow counterkey 理由",
		"//hetlint:allow spanleak reason\twith\ttabs",
		"/*hetlint:allow goroexit block comment*/",
		"//hetlint:allow nbsp weirdness",
		"//HETLINT:ALLOW detnondet case matters",
		"//hetlint:allow ctxflow \x00 nul byte",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, comment string) {
		analyzer, reason, ok, problem := analysis.ParseAllowDirective(comment)
		analyzer2, reason2, ok2, problem2 := analysis.ParseAllowDirective(comment)
		if analyzer != analyzer2 || reason != reason2 || ok != ok2 || problem != problem2 {
			t.Fatalf("non-deterministic parse of %q", comment)
		}
		if !ok {
			if analyzer != "" || reason != "" || problem != "" {
				t.Fatalf("non-directive %q returned non-zero values (%q, %q, %q)", comment, analyzer, reason, problem)
			}
			if strings.HasPrefix(comment, "//hetlint:") {
				t.Fatalf("directive-prefixed comment %q not recognized as a directive", comment)
			}
			return
		}
		if !strings.HasPrefix(comment, "//hetlint:") {
			t.Fatalf("non-prefixed comment %q parsed as a directive", comment)
		}
		if problem != "" {
			if analyzer != "" || reason != "" {
				t.Fatalf("problem parse of %q still yielded analyzer %q / reason %q", comment, analyzer, reason)
			}
			return
		}
		if strings.Contains(analyzer, " ") {
			t.Fatalf("analyzer token %q from %q contains a space", analyzer, comment)
		}
		if reason != strings.TrimSpace(reason) {
			t.Fatalf("reason %q from %q is not space-trimmed", reason, comment)
		}
	})
}
