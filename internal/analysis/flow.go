package analysis

import (
	"go/ast"
	"go/types"
)

// This file is the shared "closed on all paths" machinery behind
// spanleak (spans and mutexes) and goroexit: a resource is opened at one
// statement (a span started, a mutex locked, a goroutine obligated to
// call Done) and some closing call must be reached on every control-flow
// path out of the region — either via defer, which covers every exit, or
// via explicit calls that structurally dominate each return, loop wrap
// and fall-off-the-end.
//
// The analysis is a block-structured dominator approximation over the
// AST, not a real CFG: goto and fallthrough fail closed, panic paths are
// exempt (the invariant is moot on a crash), and nested function
// literals are opaque (their control flow is not the enclosing
// function's).

// closer reports whether one call closes the tracked resource.
type closer func(*ast.CallExpr) bool

// pathCheck runs the dominator approximation for one resource.
type pathCheck struct {
	info   *types.Info
	closes closer
}

// flowResult summarizes what the open-resource paths through a region of
// the function can do.
type flowResult struct {
	falls bool // a path reaches the region's end with the resource open
	brk   bool // a path breaks from the nearest loop/switch, still open
	cont  bool // a path continues the nearest loop, still open
	bad   bool // a path leaks: exits the function, or wraps the loop
	//            iteration that opened the resource, without closing
}

// open reports whether any path is still carrying the open resource.
func (r flowResult) open() bool { return r.bad || r.falls || r.brk || r.cont }

// deferredClose reports whether fnBody defers a closing call, directly
// or inside a deferred closure. Nested function literals other than the
// deferred one are skipped: their defers run at closure exit, not
// function exit.
func (pc *pathCheck) deferredClose(fnBody *ast.BlockStmt) bool {
	found := false
	inspectSkipFuncLits(fnBody, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if pc.closes(d.Call) {
			found = true
			return false
		}
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok && pc.closes(c) {
					found = true
					return false
				}
				return true
			})
		}
		return !found
	})
	return found
}

// leaksFrom runs the structural dominator check for a resource opened at
// openStmt inside fnBody. It descends from the function body along the
// chain of nodes enclosing the opening statement, then tracks the
// open-resource paths forward to every exit.
func (pc *pathCheck) leaksFrom(parents map[ast.Node]ast.Node, fnBody *ast.BlockStmt, openStmt ast.Stmt) bool {
	chain := make(map[ast.Node]bool)
	for n := ast.Node(openStmt); n != nil && n != ast.Node(fnBody); n = parents[n] {
		chain[n] = true
	}
	// Any open path still live at the function body's end — falling off
	// the end (an implicit return) or a stray break/continue — is a leak.
	return pc.analyzeFrom(fnBody.List, chain, openStmt).open()
}

// closedOnBody reports whether a resource open at body's entry (e.g. the
// Done obligation of a goroutine) is closed on every path out of body:
// a deferred close covers everything, otherwise explicit closes must
// dominate each exit.
func (pc *pathCheck) closedOnBody(body *ast.BlockStmt) bool {
	if pc.deferredClose(body) {
		return true
	}
	return !pc.analyzeList(body.List).open()
}

// analyzeFrom analyzes a statement list that contains (a node on the
// chain to) the opening statement: the resource opens partway through
// the list, and the suffix after it must close every open path.
func (pc *pathCheck) analyzeFrom(stmts []ast.Stmt, chain map[ast.Node]bool, openStmt ast.Stmt) flowResult {
	res := flowResult{}
	started, open := false, false
	for _, s := range stmts {
		if !started {
			if chain[s] || ast.Node(s) == ast.Node(openStmt) {
				started = true
				r := pc.analyzeEntry(s, chain, openStmt)
				res.bad = res.bad || r.bad
				res.brk = res.brk || r.brk
				res.cont = res.cont || r.cont
				open = r.falls
			}
			continue
		}
		if !open {
			break
		}
		r := pc.analyzeStmt(s)
		res.bad = res.bad || r.bad
		res.brk = res.brk || r.brk
		res.cont = res.cont || r.cont
		open = r.falls
	}
	res.falls = started && open
	return res
}

// analyzeEntry analyzes the chain statement through which control
// reaches the opening statement, returning the open paths that emerge.
func (pc *pathCheck) analyzeEntry(stmt ast.Stmt, chain map[ast.Node]bool, openStmt ast.Stmt) flowResult {
	if ast.Node(stmt) == ast.Node(openStmt) {
		return flowResult{falls: true} // the resource has just opened
	}
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return pc.analyzeFrom(s.List, chain, openStmt)
	case *ast.LabeledStmt:
		return pc.analyzeEntry(s.Stmt, chain, openStmt)
	case *ast.IfStmt:
		if ast.Node(s.Init) == ast.Node(openStmt) {
			// if sp := open(); cond { … }: open in both branches.
			t := pc.analyzeList(s.Body.List)
			e := flowResult{falls: true}
			if s.Else != nil {
				e = pc.analyzeStmt(s.Else)
			}
			return mergeBranches(t, e)
		}
		if chain[s.Body] {
			return pc.analyzeFrom(s.Body.List, chain, openStmt)
		}
		if s.Else != nil && chain[s.Else] {
			return pc.analyzeEntry(s.Else, chain, openStmt)
		}
	case *ast.ForStmt:
		if chain[s.Body] {
			return loopEntry(pc.analyzeFrom(s.Body.List, chain, openStmt))
		}
	case *ast.RangeStmt:
		if chain[s.Body] {
			return loopEntry(pc.analyzeFrom(s.Body.List, chain, openStmt))
		}
	case *ast.SwitchStmt:
		return pc.clauseEntry(s.Body, chain, openStmt)
	case *ast.TypeSwitchStmt:
		return pc.clauseEntry(s.Body, chain, openStmt)
	case *ast.SelectStmt:
		return pc.clauseEntry(s.Body, chain, openStmt)
	}
	// Unhandled shape (an opening inside an expression statement's
	// closure never reaches here; enclosingFunc scopes to the literal).
	// Fail open on the entry statement and let the suffix check decide.
	return flowResult{falls: true}
}

// loopEntry folds a loop body's outcome when the resource was opened
// inside that body: wrapping the iteration (falling off the body or
// continue) leaks the resource opened this iteration; break carries it
// out to the statements after the loop.
func loopEntry(body flowResult) flowResult {
	return flowResult{
		falls: body.brk,
		bad:   body.bad || body.falls || body.cont,
	}
}

// clauseEntry descends into the switch/select clause on the chain; a
// break inside the clause exits the construct, i.e. falls onward.
func (pc *pathCheck) clauseEntry(body *ast.BlockStmt, chain map[ast.Node]bool, openStmt ast.Stmt) flowResult {
	for _, clause := range body.List {
		if !chain[clause] {
			continue
		}
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			stmts = c.Body
		case *ast.CommClause:
			stmts = c.Body
		}
		r := pc.analyzeFrom(stmts, chain, openStmt)
		return flowResult{falls: r.falls || r.brk, cont: r.cont, bad: r.bad}
	}
	return flowResult{falls: true}
}

// analyzeList walks one statement list with the resource open on entry,
// tracking whether an open path survives each statement.
func (pc *pathCheck) analyzeList(stmts []ast.Stmt) flowResult {
	res := flowResult{}
	open := true
	for _, s := range stmts {
		if !open {
			break
		}
		r := pc.analyzeStmt(s)
		res.bad = res.bad || r.bad
		res.brk = res.brk || r.brk
		res.cont = res.cont || r.cont
		open = r.falls
	}
	res.falls = open
	return res
}

// analyzeStmt analyzes one statement executed with the resource open.
// falls means an open path continues to the next statement.
func (pc *pathCheck) analyzeStmt(stmt ast.Stmt) flowResult {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if pc.closes(call) {
				return flowResult{} // resource closed; path is now fine
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := pc.info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return flowResult{} // crash path; the invariant is moot
				}
			}
		}
		return flowResult{falls: true}
	case *ast.DeferStmt:
		if pc.closes(s.Call) {
			return flowResult{} // deferred close covers every later exit
		}
		return flowResult{falls: true}
	case *ast.ReturnStmt:
		return flowResult{bad: true}
	case *ast.BranchStmt:
		switch s.Tok.String() {
		case "break":
			return flowResult{brk: true}
		case "continue":
			return flowResult{cont: true}
		default: // goto, fallthrough: fail closed rather than model them
			return flowResult{bad: true}
		}
	case *ast.BlockStmt:
		return pc.analyzeList(s.List)
	case *ast.LabeledStmt:
		return pc.analyzeStmt(s.Stmt)
	case *ast.IfStmt:
		t := pc.analyzeList(s.Body.List)
		e := flowResult{falls: true} // no else: the condition may skip the body
		if s.Else != nil {
			e = pc.analyzeStmt(s.Else)
		}
		return mergeBranches(t, e)
	case *ast.ForStmt:
		return loopOver(pc.analyzeList(s.Body.List))
	case *ast.RangeStmt:
		return loopOver(pc.analyzeList(s.Body.List))
	case *ast.SwitchStmt:
		return pc.switchOver(s.Body, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		return pc.switchOver(s.Body, hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		// Every executed path runs exactly one clause; with no default
		// the select blocks until one fires.
		return pc.switchOver(s.Body, true)
	}
	return flowResult{falls: true}
}

// mergeBranches combines two alternative branch outcomes.
func mergeBranches(a, b flowResult) flowResult {
	return flowResult{
		falls: a.falls || b.falls,
		brk:   a.brk || b.brk,
		cont:  a.cont || b.cont,
		bad:   a.bad || b.bad,
	}
}

// loopOver folds a loop body's outcome when the resource predates the
// loop: the body may run zero times, and break/continue stay within the
// loop, so the resource stays open (falls) unless a path inside leaks
// outright. A close inside the body cannot cover the zero-iteration path.
func loopOver(body flowResult) flowResult {
	return flowResult{falls: true, bad: body.bad}
}

// switchOver folds the clause outcomes of a switch/select body entered
// with the resource open; break inside a clause exits the construct.
func (pc *pathCheck) switchOver(body *ast.BlockStmt, exhaustive bool) flowResult {
	res := flowResult{falls: !exhaustive}
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			stmts = c.Body
		case *ast.CommClause:
			stmts = c.Body
		}
		r := pc.analyzeList(stmts)
		res.falls = res.falls || r.falls || r.brk
		res.cont = res.cont || r.cont
		res.bad = res.bad || r.bad
	}
	return res
}

// hasDefaultClause reports whether a switch body has a default case.
func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, clause := range body.List {
		if c, ok := clause.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}
