package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// directivePrefix starts every hetlint source directive.
const directivePrefix = "hetlint:"

// directive is one parsed //hetlint:allow comment.
type directive struct {
	file     string
	line     int
	analyzer string
	used     bool
}

// ParseAllowDirective parses the text of one source comment against the
// //hetlint:allow grammar:
//
//	//hetlint:allow <analyzer> <reason>
//
// ok reports whether the comment is a hetlint directive at all (the
// "//hetlint:" prefix); non-directive comments return ok=false and zero
// values. For directives, problem carries the grammar diagnostic for an
// unknown verb, and is empty otherwise; analyzer is the first
// space-separated token after the verb (possibly empty) and reason the
// space-trimmed remainder. Whether the analyzer name is real and the
// reason non-empty is the caller's judgment: the parser has no analyzer
// registry.
func ParseAllowDirective(comment string) (analyzer, reason string, ok bool, problem string) {
	text, ok := strings.CutPrefix(comment, "//"+directivePrefix)
	if !ok {
		return "", "", false, ""
	}
	verb, rest, _ := strings.Cut(text, " ")
	if verb != "allow" {
		return "", "", true,
			fmt.Sprintf("unknown hetlint directive %q: only //hetlint:allow <analyzer> <reason> is defined", verb)
	}
	analyzer, reason, _ = strings.Cut(strings.TrimSpace(rest), " ")
	return analyzer, strings.TrimSpace(reason), true, ""
}

// parseDirectives extracts the package's //hetlint: comments, reporting
// malformed ones into out and returning the well-formed suppressions.
func parseDirectives(pkg *Package, known map[string]bool, out *[]Finding) []*directive {
	var dirs []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, isDir, problem := ParseAllowDirective(c.Text)
				if !isDir {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				switch {
				case problem != "":
					*out = append(*out, directiveFinding(pos, problem))
				case !known[name]:
					*out = append(*out, directiveFinding(pos,
						fmt.Sprintf("//hetlint:allow names unknown analyzer %q", name)))
				case reason == "":
					*out = append(*out, directiveFinding(pos,
						fmt.Sprintf("//hetlint:allow %s has no reason; the directive grammar is //hetlint:allow <analyzer> <reason>", name)))
				default:
					dirs = append(dirs, &directive{file: pos.Filename, line: pos.Line, analyzer: name})
				}
			}
		}
	}
	return dirs
}

// directiveFinding builds one DirectiveName finding at pos.
func directiveFinding(pos token.Position, msg string) Finding {
	return Finding{Pos: pos, Analyzer: DirectiveName, Message: msg}
}

// matchDirective returns the directive suppressing f, if any: same
// analyzer, same file, on the finding's line or the line directly above.
func matchDirective(dirs []*directive, f Finding) *directive {
	for _, d := range dirs {
		if d.analyzer == f.Analyzer && d.file == f.Pos.Filename &&
			(d.line == f.Pos.Line || d.line == f.Pos.Line-1) {
			return d
		}
	}
	return nil
}
