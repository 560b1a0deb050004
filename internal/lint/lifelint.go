package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// lifelint is the typestate analyzer: it checks every function against
// the //copier:lifecycle specs (lifespec.go) by abstract interpretation
// over a finite state lattice.
//
// Per function the analysis is flow-sensitive (the flow engine in
// flow.go walks the statements): each tracked value is a cell whose
// possible-states set flows through statements, and joins union it. A
// value that reaches a return, the end of the function, or an
// overwriting rebind in a non-accepting state is a leak (life-leak); an
// op applied from a dead state is a double release or a
// use-after-release; an op applied from any other state outside its
// declared sources is life-state.
//
// Across calls the analysis is summary-based. Every function gets a
// summary — per tracked parameter: the entry states its body requires,
// the exit states it leaves the value in, and whether it escapes; per
// result: the birth states of a returned tracked value; plus the pair
// obligations it opens (//copier:lifecycle holds) or discharges. Call
// sites apply summaries instead of inlining, so a helper that releases
// a handle counts as a release in every caller, and a second release
// after it is reported there. Summaries are keyed by normalized
// function name, so they compose across packages and through wrappers.
//
// Deliberate coarseness (documented, not accidental): a value that
// escapes — stored into a field, slice, map, channel or closure, or
// passed to a function outside the loaded source — stops being
// tracked; obligations follow the escape. Error-conditioned births
// (Pin returns error; open obligations exist only when err == nil) are
// refined at err != nil branches. A path the engine ends at a
// terminator (panic, os.Exit, ...) gets no leak check.

// lifeParamSum summarizes a tracked parameter's treatment.
type lifeParamSum struct {
	spec    *lifeSpec
	require uint64 // entry states the body demands of callers
	exit    uint64 // states at return, given require held
	escaped bool
	touched bool
}

// lifeRet summarizes one tracked result: the states it is born in.
type lifeRet struct {
	spec   *lifeSpec
	states uint64
}

// lifeSummary is a function's interprocedural summary.
type lifeSummary struct {
	params map[int]*lifeParamSum
	rets   map[int]lifeRet
}

type lifeChecker struct {
	specs     *lifeSpecs
	summaries map[string]*lifeSummary
	releasers map[string][]*lifeSpec // func key -> pairs its body discharges
	stats     *flowStats
}

// lifeLint runs the typestate analysis over the loaded packages,
// recording how its fixpoints ended in stats.
func lifeLint(pkgs []*Package, stats *flowStats) []Finding {
	specs, out := collectLifeSpecs(pkgs)
	if len(specs.list) == 0 {
		return out
	}
	lc := &lifeChecker{specs: specs, summaries: make(map[string]*lifeSummary), releasers: make(map[string][]*lifeSpec), stats: stats}
	fns := flowFuncs(pkgs, nil)

	// Pair dischargers are syntactic: a function whose body directly
	// calls a close function or builds a transfer type discharges those
	// pairs in its caller. Deliberately not transitive — an opener that
	// rolls back internally must not read as a releaser to its callers.
	for _, fn := range fns {
		if fn.key == "" {
			continue
		}
		if pairs := lc.scanDischarges(fn.p, fn.fd.Body); len(pairs) > 0 {
			lc.releasers[fn.key] = pairs
		}
	}
	return append(out, flowSummaries(fns, lc.summaries, stats, lc.analyze)...)
}

// scanDischarges finds the pairs a body discharges directly.
func (lc *lifeChecker) scanDischarges(p *Package, body ast.Node) []*lifeSpec {
	var pairs []*lifeSpec
	add := func(s *lifeSpec) {
		for _, have := range pairs {
			if have == s {
				return
			}
		}
		pairs = append(pairs, s)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(p, e); fn != nil {
				key := lifeFuncKey(fn)
				if s := lc.specs.closeBy[key]; s != nil {
					add(s)
				}
				for _, s := range lc.releasers[key] {
					add(s)
				}
			}
		case *ast.CompositeLit:
			if t := p.Info.TypeOf(e); t != nil {
				for _, s := range lc.specs.transfers[lifeTypeKey(t)] {
					add(s)
				}
			}
		}
		return true
	})
	return pairs
}

// calleeFunc resolves a call's static callee, if any.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// --- abstract state ---------------------------------------------------

// lifeCellMeta is the per-cell birth record (shared across paths).
type lifeCellMeta struct {
	spec  *lifeSpec
	line  int
	by    string // constructor name for traces
	param int    // flattened parameter index; -1 otherwise
	pair  bool
}

// cellState is one cell's state on one path. states==0 means the cell
// does not exist on this path (not yet born, or err-branch dropped).
type cellState struct {
	states   uint64
	escaped  bool
	moved    bool         // returned or discharged: obligation left this frame
	guard    types.Object // error var conditioning existence; nil = unconditional
	entry    bool         // param-born, no op applied yet
	touched  bool
	require  uint64
	lastOp   string
	lastLine int
}

// lifeEnv is the abstract environment of one path.
type lifeEnv struct {
	bind   map[types.Object]int
	cells  []cellState
	defers []ast.Expr
}

func (e *lifeEnv) clone() *lifeEnv {
	c := &lifeEnv{
		bind:   make(map[types.Object]int, len(e.bind)),
		cells:  append([]cellState(nil), e.cells...),
		defers: append([]ast.Expr(nil), e.defers...),
	}
	for k, v := range e.bind {
		c.bind[k] = v
	}
	return c
}

// join merges other into e (both paths reach here). Returns whether e
// changed, for loop fixpoints.
func (e *lifeEnv) join(other *lifeEnv) bool {
	changed := false
	for len(e.cells) < len(other.cells) {
		e.cells = append(e.cells, cellState{})
		changed = true
	}
	for i := range other.cells {
		a, b := &e.cells[i], other.cells[i]
		m := *a
		m.states |= b.states
		m.escaped = a.escaped || b.escaped
		m.moved = a.moved || b.moved
		m.entry = a.entry || b.entry
		m.touched = a.touched || b.touched
		m.require &= b.require
		if a.guard != b.guard {
			m.guard = nil
		}
		if b.lastLine > a.lastLine {
			m.lastOp, m.lastLine = b.lastOp, b.lastLine
		}
		if m != *a {
			*a = m
			changed = true
		}
	}
	// Conflicting bindings (h set to different cells on two paths) give
	// up tracking both cells rather than guessing.
	for obj, bc := range other.bind {
		ac, ok := e.bind[obj]
		switch {
		case !ok:
			e.bind[obj] = bc
			changed = true
		case ac != bc:
			if !e.cells[ac].escaped || !e.cells[bc].escaped {
				e.cells[ac].escaped = true
				e.cells[bc].escaped = true
				changed = true
			}
		}
	}
	for _, d := range other.defers {
		if !slices.Contains(e.defers, d) {
			e.defers = append(e.defers, d)
			changed = true
		}
	}
	return changed
}

// --- per-function walk ------------------------------------------------

type funcWalker struct {
	flow[lifeEnv, *lifeEnv]
	lc       *lifeChecker
	p        *Package
	fd       *ast.FuncDecl
	findings *[]Finding // nil during summary rounds

	cells    []*lifeCellMeta
	siteCell map[ast.Node]int
	born     []int // cells born by the innermost call being evaluated
	leaked   []bool
	// closureFloor is the first cell index born inside the FuncLit
	// currently being interpreted inline (0 = function level): exits
	// inside a closure only check the closure's own cells.
	closureFloor int

	sum      *lifeSummary
	paramIdx map[int]int // flattened param index -> cell
	holds    map[*lifeSpec]bool
}

// analyze interprets one function and returns its summary.
func (lc *lifeChecker) analyze(fn *flowFunc, findings *[]Finding) *lifeSummary {
	w := &funcWalker{
		lc: lc, p: fn.p, fd: fn.fd, findings: findings,
		siteCell: make(map[ast.Node]int),
		sum:      &lifeSummary{params: make(map[int]*lifeParamSum), rets: make(map[int]lifeRet)},
		paramIdx: make(map[int]int),
		holds:    make(map[*lifeSpec]bool),
	}
	w.flow = flow[lifeEnv, *lifeEnv]{p: fn.p, hooks: w, stats: lc.stats}
	for _, pair := range lc.specs.holds[fn.key] {
		if s := lc.specs.pairs[pair]; s != nil {
			w.holds[s] = true
		}
	}
	env := &lifeEnv{bind: make(map[types.Object]int)}

	// Tracked parameters start as entry-symbolic cells: ops on them are
	// recorded as caller requirements, not reported here, and their
	// exit states become the summary.
	fnObj, _ := fn.p.Info.Defs[fn.fd.Name].(*types.Func)
	if fnObj != nil {
		sig, _ := fnObj.Type().(*types.Signature)
		if sig != nil {
			for i := 0; i < sig.Params().Len(); i++ {
				prm := sig.Params().At(i)
				spec := w.specFor(prm.Type())
				if spec == nil {
					continue
				}
				idx := w.newCell(&lifeCellMeta{spec: spec, line: w.line(prm.Pos()), by: "parameter " + prm.Name(), param: i}, env)
				st := &env.cells[idx]
				st.states = spec.allStates() &^ spec.dead
				st.entry = true
				st.require = spec.allStates()
				env.bind[prm] = idx
				w.paramIdx[i] = idx
			}
		}
	}

	if !w.stmt(env, fn.fd.Body) {
		w.applyDefers(env)
		w.exitCheck(env, fn.fd.Body.Rbrace, "end of function")
	}
	return w.sum
}

// specFor returns the active spec for a value type, honoring the
// defining-package exemption.
func (w *funcWalker) specFor(t types.Type) *lifeSpec {
	spec := w.lc.specs.byType[lifeTypeKey(t)]
	if spec == nil || spec.pkgPath == w.p.Path {
		return nil
	}
	return spec
}

// pairActive reports whether a pair spec applies in this package.
func (w *funcWalker) pairActive(s *lifeSpec) bool {
	return s != nil && s.pkgPath != w.p.Path
}

func (w *funcWalker) line(pos token.Pos) int { return w.p.Position(pos).Line }

func (w *funcWalker) report(pos token.Pos, rule, msg, hint string) {
	if w.findings == nil {
		return
	}
	*w.findings = append(*w.findings, Finding{Pos: w.p.Position(pos), Rule: rule, Msg: msg, Hint: hint})
}

// newCell allocates (or, at a revisited birth site, reuses) a cell.
func (w *funcWalker) newCell(meta *lifeCellMeta, env *lifeEnv) int {
	idx := len(w.cells)
	w.cells = append(w.cells, meta)
	w.leaked = append(w.leaked, false)
	for len(env.cells) < len(w.cells) {
		env.cells = append(env.cells, cellState{})
	}
	return idx
}

// birth creates or resets the cell for a creation site. A previous
// typed obligation still live at the site (a loop recreating a handle
// it never released) is reported as the leak it is; pair obligations
// are counted resources, so re-opening one in a loop only accumulates.
func (w *funcWalker) birth(site ast.Node, spec *lifeSpec, state uint64, by string, pair bool, env *lifeEnv) int {
	idx, ok := w.siteCell[site]
	if !ok {
		idx = w.newCell(&lifeCellMeta{spec: spec, line: w.line(site.Pos()), by: by, param: -1, pair: pair}, env)
		w.siteCell[site] = idx
	}
	for len(env.cells) <= idx {
		env.cells = append(env.cells, cellState{})
	}
	st := &env.cells[idx]
	if !pair && st.states != 0 && !st.moved && !st.escaped && st.states&^spec.accept != 0 {
		w.leakAt(site.Pos(), idx, *st, "recreated here")
	}
	*st = cellState{states: state}
	w.born = append(w.born, idx)
	return idx
}

// leakAt reports one leak, once per cell per walk.
func (w *funcWalker) leakAt(pos token.Pos, idx int, st cellState, where string) {
	if w.leaked[idx] || w.findings == nil {
		return
	}
	w.leaked[idx] = true
	meta := w.cells[idx]
	spec := meta.spec
	if meta.pair {
		w.report(pos, RuleLifeLeak,
			fmt.Sprintf("%s obligation opened at line %d (%s) is not discharged on this path (%s)",
				spec.name, meta.line, meta.by, where),
			fmt.Sprintf("close it on every path (including error returns), or transfer/annotate with //copier:lifecycle holds %s", spec.name))
		return
	}
	trace := fmt.Sprintf("created at line %d (%s)", meta.line, meta.by)
	if st.lastOp != "" {
		trace += fmt.Sprintf(", last transition %s at line %d", st.lastOp, st.lastLine)
	}
	verb := "is dropped"
	if st.states&spec.accept != 0 {
		verb = "may be dropped" // released on a sibling path: a join leak
	}
	w.report(pos, RuleLifeLeak,
		fmt.Sprintf("%s %s, %s in state %s (%s)", spec.name, trace, verb, spec.stateNames(st.states), where),
		fmt.Sprintf("call %s on every path before the value goes out of scope", spec.releaseOps()))
}

// exitCheck runs the leak checks for one path leaving the function
// (or, inside an inline-interpreted closure, leaving the closure: the
// floor restricts the check to cells the closure itself created).
func (w *funcWalker) exitCheck(env *lifeEnv, pos token.Pos, where string) {
	for idx := w.closureFloor; idx < len(env.cells); idx++ {
		if idx >= len(w.cells) {
			break
		}
		st := env.cells[idx]
		meta := w.cells[idx]
		if meta.param >= 0 {
			// Parameter treatment feeds the summary, not findings: the
			// obligation belongs to the caller.
			ps := w.sum.params[meta.param]
			if ps == nil {
				ps = &lifeParamSum{spec: meta.spec, require: meta.spec.allStates()}
				w.sum.params[meta.param] = ps
			}
			ps.exit |= st.states
			ps.require &= st.require
			ps.escaped = ps.escaped || st.escaped
			ps.touched = ps.touched || st.touched
			continue
		}
		if st.states == 0 || st.escaped || st.moved {
			continue
		}
		if meta.pair {
			if !w.holds[meta.spec] {
				w.leakAt(pos, idx, st, where)
			}
			continue
		}
		if st.states&^meta.spec.accept != 0 {
			w.leakAt(pos, idx, st, where)
		}
	}
}

// applyOp runs one lifecycle transition on a cell, reporting dead-state
// and wrong-state uses.
func (w *funcWalker) applyOp(env *lifeEnv, idx int, op *lifeOp, pos token.Pos, via string) {
	st := &env.cells[idx]
	if st.states == 0 || st.escaped {
		return // absent on this path, or laundered (ordering unknown)
	}
	meta := w.cells[idx]
	spec := meta.spec
	opName := op.name
	if via != "" {
		opName = via
	}
	trace := fmt.Sprintf("created at line %d (%s)", meta.line, meta.by)
	if st.lastOp != "" {
		trace += fmt.Sprintf(", last transition %s at line %d", st.lastOp, st.lastLine)
	}
	releasing := op.to >= 0 && spec.dead&(1<<uint(op.to)) != 0
	switch {
	case st.states&spec.dead != 0:
		maybe := ""
		if st.states&^spec.dead != 0 {
			maybe = "may be "
		}
		if releasing {
			w.report(pos, RuleLifeDoubleRelease,
				fmt.Sprintf("%s on %s that %salready reached %s (%s)", opName, spec.name, maybe, spec.stateNames(st.states&spec.dead), trace),
				"release exactly once; drop the redundant call or restructure the paths")
		} else {
			w.report(pos, RuleLifeUseAfterRelease,
				fmt.Sprintf("%s on %s %safter release (%s)", opName, spec.name, maybe, trace),
				"use the value before releasing it, or re-acquire")
		}
	case st.states&^op.from != 0:
		if st.entry {
			st.require &= op.from
		} else {
			maybe := ""
			if st.states&op.from != 0 {
				maybe = "on some paths "
			}
			w.report(pos, RuleLifeState,
				fmt.Sprintf("%s on %s %sin state %s, allowed only from %s (%s)", opName, spec.name, maybe, spec.stateNames(st.states&^op.from), spec.stateNames(op.from), trace),
				"observe completion (or the required state) first")
		}
	}
	if op.to >= 0 {
		st.states = 1 << uint(op.to)
	} else if s := st.states & op.from; s != 0 {
		st.states = s
	}
	st.entry = false
	st.touched = true
	st.lastOp, st.lastLine = op.name, w.line(pos)
}

// deadCheck flags any other method call on a released value.
func (w *funcWalker) deadCheck(env *lifeEnv, idx int, name string, pos token.Pos) {
	st := &env.cells[idx]
	meta := w.cells[idx]
	if st.states == 0 || st.escaped || meta.spec.dead == 0 || st.states&meta.spec.dead == 0 {
		return
	}
	if st.entry {
		return
	}
	maybe := ""
	if st.states&^meta.spec.dead != 0 {
		maybe = "may be "
	}
	trace := fmt.Sprintf("created at line %d (%s)", meta.line, meta.by)
	if st.lastOp != "" {
		trace += fmt.Sprintf(", last transition %s at line %d", st.lastOp, st.lastLine)
	}
	w.report(pos, RuleLifeUseAfterRelease,
		fmt.Sprintf("%s on %s %safter release (%s)", name, meta.spec.name, maybe, trace),
		"use the value before releasing it, or re-acquire")
}

func (w *funcWalker) escape(env *lifeEnv, idx int) {
	if idx >= 0 && idx < len(env.cells) {
		env.cells[idx].escaped = true
		env.cells[idx].touched = true
	}
}

// discharge resolves every open obligation of a pair lifecycle.
func (w *funcWalker) discharge(env *lifeEnv, pair *lifeSpec) {
	for idx := range env.cells {
		if idx < len(w.cells) && w.cells[idx].pair && w.cells[idx].spec == pair {
			env.cells[idx].moved = true
		}
	}
}

// clearGuards confirms cells guarded by obj (its error value is being
// overwritten, so the old condition is stale: assume held).
func (w *funcWalker) clearGuards(env *lifeEnv, obj types.Object) {
	if obj == nil {
		return
	}
	for i := range env.cells {
		if env.cells[i].guard == obj {
			env.cells[i].guard = nil
		}
	}
}

// --- statements -------------------------------------------------------

// The flow engine (flow.go) owns control flow; these are lifelint's
// transfer functions for the leaf statements.

func (w *funcWalker) eval(env *lifeEnv, e ast.Expr) { w.expr(e, env) }

func (w *funcWalker) incDec(env *lifeEnv, st *ast.IncDecStmt) { w.expr(st.X, env) }

// rangeHead evaluates the ranged operand; a tracked value ranged over
// escapes.
func (w *funcWalker) rangeHead(env *lifeEnv, st *ast.RangeStmt) {
	w.escape(env, w.expr(st.X, env))
}

func (w *funcWalker) selectEdge(*lifeEnv) {}

// deferStmt records the call: the receiver/args are evaluated now,
// the effect lands at the path's exit (applyDefers).
func (w *funcWalker) deferStmt(env *lifeEnv, st *ast.DeferStmt) {
	env.defers = append(env.defers, st.Call)
}

// goStmt: values handed to a new goroutine escape.
func (w *funcWalker) goStmt(env *lifeEnv, st *ast.GoStmt) {
	w.expr(st.Call.Fun, env)
	for _, a := range st.Call.Args {
		w.escape(env, w.expr(a, env))
	}
}

// send: a value sent on a channel escapes.
func (w *funcWalker) send(env *lifeEnv, st *ast.SendStmt) {
	w.expr(st.Chan, env)
	w.escape(env, w.expr(st.Value, env))
}

// returnStmt moves returned cells to the caller (recording the return
// summary), applies deferred effects, and leak-checks the path.
func (w *funcWalker) returnStmt(env *lifeEnv, st *ast.ReturnStmt) {
	for i, res := range st.Results {
		idx := w.expr(res, env)
		if idx < 0 {
			continue
		}
		cst := env.cells[idx]
		if w.closureFloor == 0 && w.cells[idx].param < 0 && !cst.moved && !cst.escaped && cst.states != 0 {
			r := w.sum.rets[i]
			r.spec = w.cells[idx].spec
			r.states |= cst.states
			w.sum.rets[i] = r
		}
		env.cells[idx].moved = true
	}
	w.applyDefers(env)
	w.exitCheck(env, st.Pos(), "return")
}

// applyDefers replays the deferred calls recorded on this path.
func (w *funcWalker) applyDefers(env *lifeEnv) {
	defers := env.defers
	env.defers = nil
	for i := len(defers) - 1; i >= 0; i-- {
		call, ok := defers[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			// defer func() { ... }(): interpret the body here.
			w.stmt(env, fl.Body)
			continue
		}
		w.expr(call, env)
	}
}

// --- assignments ------------------------------------------------------

func (w *funcWalker) assign(env *lifeEnv, st *ast.AssignStmt) {
	w.bindAll(env, st.Lhs, st.Rhs)
}

func (w *funcWalker) decl(env *lifeEnv, vs *ast.ValueSpec) {
	lhs := make([]ast.Expr, len(vs.Names))
	for i, n := range vs.Names {
		lhs[i] = n
	}
	w.bindAll(env, lhs, vs.Values)
}

func (w *funcWalker) bindAll(env *lifeEnv, lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) > 1 {
		w.multiAssign(lhs, rhs[0], env)
		return
	}
	for i := range rhs {
		w.born = nil
		idx := w.expr(rhs[i], env)
		if i < len(lhs) {
			w.bindLHS(lhs[i], idx, env)
		}
	}
	w.born = nil
}

// multiAssign handles h, err := f(): the tracked result binds by its
// result type; an error result becomes the guard of every cell the
// call created.
func (w *funcWalker) multiAssign(lhs []ast.Expr, rhs ast.Expr, env *lifeEnv) {
	w.born = nil
	w.expr(rhs, env)
	born := w.born
	w.born = nil
	tuple, _ := w.p.Info.TypeOf(rhs).(*types.Tuple)
	var guardObj types.Object
	for i, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := w.p.Info.ObjectOf(id)
		if obj == nil {
			continue
		}
		w.clearGuards(env, obj)
		w.rebind(env, obj, -1, l.Pos())
		if tuple == nil || i >= tuple.Len() {
			continue
		}
		rt := tuple.At(i).Type()
		if isErrorType(rt) {
			guardObj = obj
			continue
		}
		for _, c := range born {
			if !w.cells[c].pair && w.cells[c].spec == w.specFor(rt) {
				env.bind[obj] = c
			}
		}
	}
	if guardObj != nil {
		for _, c := range born {
			env.cells[c].guard = guardObj
		}
	}
}

// bindLHS binds one assignment target to a cell (or escapes the cell
// into a field/element store). Single-value calls that opened guarded
// obligations (err = as.Pin(...)) attach the guard here.
func (w *funcWalker) bindLHS(l ast.Expr, idx int, env *lifeEnv) {
	born := w.born
	if id, ok := ast.Unparen(l).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := w.p.Info.ObjectOf(id)
		if obj == nil {
			return
		}
		w.clearGuards(env, obj)
		w.rebind(env, obj, idx, l.Pos())
		if idx < 0 && isErrorType(obj.Type()) {
			for _, c := range born {
				env.cells[c].guard = obj
			}
		}
		return
	}
	// Field, index or deref store: the obligation escapes with it.
	w.expr(l, env)
	if idx >= 0 {
		w.escape(env, idx)
	}
}

// rebind points obj at a new cell, reporting the old one if this
// overwrite drops a live obligation no other variable still holds.
func (w *funcWalker) rebind(env *lifeEnv, obj types.Object, idx int, pos token.Pos) {
	if old, ok := env.bind[obj]; ok && old != idx {
		st := env.cells[old]
		if st.states != 0 && !st.moved && !st.escaped && st.states&^w.cells[old].spec.accept != 0 {
			aliased := false
			for o2, c2 := range env.bind {
				if c2 == old && o2 != obj {
					aliased = true
					break
				}
			}
			if !aliased && w.cells[old].param < 0 {
				w.leakAt(pos, old, st, "overwritten here")
			}
		}
	}
	if idx >= 0 {
		env.bind[obj] = idx
	} else {
		delete(env.bind, obj)
	}
}

func isErrorType(t types.Type) bool {
	named, _ := t.(*types.Named)
	return named != nil && named.Obj() != nil && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// --- condition refinement ---------------------------------------------

// refine narrows a forked environment by what the branch condition
// being true (sense) or false says: err-guard checks drop or confirm
// conditional births; boolean observers with a `test` clause narrow
// the tracked state.
func (w *funcWalker) refine(env *lifeEnv, cond ast.Expr, sense bool) {
	cond = ast.Unparen(cond)
	switch e := cond.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			w.refine(env, e.X, !sense)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if sense {
				w.refine(env, e.X, true)
				w.refine(env, e.Y, true)
			}
		case token.LOR:
			if !sense {
				w.refine(env, e.X, false)
				w.refine(env, e.Y, false)
			}
		case token.NEQ, token.EQL:
			x, y := ast.Unparen(e.X), ast.Unparen(e.Y)
			if isNilIdent(y) {
				w.refineErrNil(x, env, (e.Op == token.EQL) == sense)
			} else if isNilIdent(x) {
				w.refineErrNil(y, env, (e.Op == token.EQL) == sense)
			}
		}
	case *ast.CallExpr:
		// if h.Done() { ... }: a spec `test` observer narrows the state.
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok || !sense {
			return
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return
		}
		obj := w.p.Info.Uses[id]
		idx, bound := env.bind[obj]
		if !bound {
			return
		}
		meta := w.cells[idx]
		if mask, ok := meta.spec.tests[sel.Sel.Name]; ok {
			env.cells[idx].states &= mask
			env.cells[idx].entry = false
		}
	}
}

// refineErrNil handles err == nil / err != nil over a guard variable:
// when the error is known non-nil the guarded births never happened;
// when known nil they are confirmed unconditional.
func (w *funcWalker) refineErrNil(e ast.Expr, env *lifeEnv, errIsNil bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	obj := w.p.Info.Uses[id]
	if obj == nil {
		return
	}
	for i := range env.cells {
		if env.cells[i].guard != obj {
			continue
		}
		if errIsNil {
			env.cells[i].guard = nil
		} else {
			env.cells[i] = cellState{}
		}
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// --- expressions ------------------------------------------------------

// expr evaluates an expression for its lifecycle effects and returns
// the cell it denotes, or -1.
func (w *funcWalker) expr(e ast.Expr, env *lifeEnv) int {
	if e == nil {
		return -1
	}
	switch x := e.(type) {
	case *ast.Ident:
		if obj := w.p.Info.Uses[x]; obj != nil {
			if idx, ok := env.bind[obj]; ok {
				return idx
			}
		}
	case *ast.ParenExpr:
		return w.expr(x.X, env)
	case *ast.CallExpr:
		return w.call(x, env)
	case *ast.SelectorExpr:
		w.expr(x.X, env)
	case *ast.StarExpr:
		return w.expr(x.X, env)
	case *ast.UnaryExpr:
		idx := w.expr(x.X, env)
		if x.Op == token.AND {
			if _, lit := ast.Unparen(x.X).(*ast.CompositeLit); lit {
				return idx // &T{...}: the literal's cell passes through
			}
			w.escape(env, idx) // &v: aliasable pointer, stop tracking
			return -1
		}
		if x.Op == token.ARROW {
			return -1 // channel receive: untracked origin
		}
		return idx
	case *ast.BinaryExpr:
		w.expr(x.X, env)
		w.expr(x.Y, env)
	case *ast.CompositeLit:
		return w.compositeLit(x, env)
	case *ast.FuncLit:
		w.funcLit(x, env)
	case *ast.IndexExpr:
		w.expr(x.X, env)
		w.expr(x.Index, env)
	case *ast.SliceExpr:
		w.expr(x.X, env)
	case *ast.TypeAssertExpr:
		w.expr(x.X, env)
	case *ast.KeyValueExpr:
		if idx := w.expr(x.Value, env); idx >= 0 {
			w.escape(env, idx)
		}
	}
	return -1
}

// compositeLit births tracked-literal cells, discharges transfer
// pairs, and escapes any tracked elements stored inside.
func (w *funcWalker) compositeLit(lit *ast.CompositeLit, env *lifeEnv) int {
	for _, el := range lit.Elts {
		if idx := w.expr(el, env); idx >= 0 {
			w.escape(env, idx)
		}
	}
	t := w.p.Info.TypeOf(lit)
	key := lifeTypeKey(t)
	for _, pair := range w.lc.specs.transfers[key] {
		if w.pairActive(pair) {
			w.discharge(env, pair)
		}
	}
	if spec := w.specFor(t); spec != nil && spec.litState >= 0 {
		return w.birth(lit, spec, 1<<uint(spec.litState), "composite literal", false, env)
	}
	return -1
}

// funcLit: captured tracked values escape (the closure may run at any
// time, so their ordering is not ours to judge), then the body is
// interpreted inline. Closures in this codebase run either
// synchronously (kernel Syscall bodies) or as scheduled completions;
// either way the obligations a closure opens and discharges belong to
// the enclosing path, and a cell born inside the closure must be
// discharged before the closure returns. Returns inside the body are
// closure exits, not function exits: closureFloor restricts their leak
// check to the closure's own cells.
func (w *funcWalker) funcLit(fl *ast.FuncLit, env *lifeEnv) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.p.Info.Uses[id]; obj != nil {
				if idx, bound := env.bind[obj]; bound {
					w.escape(env, idx)
				}
			}
		}
		return true
	})
	savedFloor, savedDefers := w.closureFloor, env.defers
	w.closureFloor = len(w.cells)
	env.defers = nil
	if !w.stmt(env, fl.Body) {
		w.applyDefers(env)
		w.exitCheck(env, fl.Body.Rbrace, "the closure returns")
	}
	env.defers = savedDefers
	w.closureFloor = savedFloor
}

// call is the dispatch core: conversions, builtins, spec ops and
// constructors, pair open/close, summaries, and the unknown-callee
// escape fallback.
func (w *funcWalker) call(call *ast.CallExpr, env *lifeEnv) int {
	// Conversion: T(x) passes the cell through.
	if tv, ok := w.p.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return w.expr(call.Args[0], env)
		}
		return -1
	}

	// Builtins: append/copy launder values into containers.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.p.Info.Uses[id].(*types.Builtin); ok {
			for i, a := range call.Args {
				idx := w.expr(a, env)
				if idx >= 0 && !(b.Name() == "append" && i == 0) {
					w.escape(env, idx)
				}
			}
			return -1
		}
	}

	fn := calleeFunc(w.p, call)

	// Method call on a tracked receiver: apply the spec op.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fn != nil {
		if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
			recv := w.expr(sel.X, env)
			for _, a := range call.Args {
				if idx := w.expr(a, env); idx >= 0 {
					w.escape(env, idx)
				}
			}
			if recv >= 0 {
				spec := w.cells[recv].spec
				if !w.cells[recv].pair {
					if op, ok := spec.ops[fn.Name()]; ok {
						w.applyOp(env, recv, op, call.Pos(), "")
					} else {
						w.deadCheck(env, recv, fn.Name(), call.Pos())
					}
				}
			}
			return w.callEffects(call, fn, nil, env)
		}
	}

	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.funcLit(fl, env)
	} else if _, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok {
		w.expr(call.Fun, env)
	}

	argCells := make([]int, len(call.Args))
	for i, a := range call.Args {
		argCells[i] = w.expr(a, env)
	}
	return w.callEffects(call, fn, argCells, env)
}

// callEffects applies constructor/op/pair/summary semantics for one
// resolved call; argCells may be nil for method calls (receiver ops
// are already applied, remaining args already escaped).
func (w *funcWalker) callEffects(call *ast.CallExpr, fn *types.Func, argCells []int, env *lifeEnv) int {
	if fn == nil {
		for _, idx := range argCells {
			w.escape(env, idx)
		}
		return -1
	}
	key := lifeFuncKey(fn)
	specs := w.lc.specs
	ret := -1
	known := false

	if spec := specs.newsBy[key]; spec != nil && spec.pkgPath != w.p.Path {
		ret = w.birth(call, spec, 1<<uint(spec.news[key]), fn.Name(), false, env)
		known = true
	}
	if spec := specs.openBy[key]; w.pairActive(spec) {
		w.birth(call, spec, 1, displayName(fn), true, env)
		known = true
	}
	if spec := specs.closeBy[key]; w.pairActive(spec) {
		w.discharge(env, spec)
		known = true
	}
	for _, pairName := range specs.holds[key] {
		if spec := specs.pairs[pairName]; w.pairActive(spec) {
			w.birth(call, spec, 1, displayName(fn), true, env)
			known = true
		}
	}
	for _, spec := range w.lc.releasers[key] {
		if w.pairActive(spec) {
			w.discharge(env, spec)
			known = true
		}
	}
	if spec := specs.argOpsBy[key]; spec != nil && spec.pkgPath != w.p.Path {
		op := spec.argOps[key]
		for _, idx := range argCells {
			if idx >= 0 && !w.cells[idx].pair && w.cells[idx].spec == spec {
				w.applyOp(env, idx, op, call.Pos(), op.name)
				break
			}
		}
		known = true
	}

	if sum := w.lc.summaries[key]; sum != nil {
		w.applySummary(call, fn, sum, argCells, env)
		if ret < 0 {
			ret = w.summaryBirths(call, fn, sum, env)
		}
		return ret
	}
	if !known {
		// No source, no spec: the obligation walks out with the args.
		for _, idx := range argCells {
			w.escape(env, idx)
		}
	}
	return ret
}

// applySummary transfers a callee's per-parameter effects onto the
// caller's cells: requirement checks happen here, at the call site.
func (w *funcWalker) applySummary(call *ast.CallExpr, fn *types.Func, sum *lifeSummary, argCells []int, env *lifeEnv) {
	if argCells == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return
	}
	for i, idx := range argCells {
		if idx < 0 || i >= sig.Params().Len() {
			continue
		}
		ps := sum.params[i]
		if ps == nil || ps.spec != w.cells[idx].spec || w.cells[idx].pair {
			continue
		}
		st := &env.cells[idx]
		if st.states == 0 {
			continue
		}
		spec := ps.spec
		meta := w.cells[idx]
		trace := fmt.Sprintf("created at line %d (%s)", meta.line, meta.by)
		switch {
		case spec.dead != 0 && st.states&spec.dead != 0 && ps.touched:
			maybe := ""
			if st.states&^spec.dead != 0 {
				maybe = "may be "
			}
			w.report(call.Pos(), RuleLifeUseAfterRelease,
				fmt.Sprintf("%s passed to %s %safter release (%s)", spec.name, fn.Name(), maybe, trace),
				"pass the value before releasing it")
		case st.entry:
			st.require &= ps.require
		case st.states&^ps.require != 0:
			w.report(call.Pos(), RuleLifeState,
				fmt.Sprintf("%s in state %s passed to %s, which requires %s (%s)",
					spec.name, spec.stateNames(st.states&^ps.require), fn.Name(), spec.stateNames(ps.require), trace),
				"establish the required state before the call")
		}
		if ps.escaped {
			st.escaped = true
		} else if ps.touched {
			st.states = ps.exit
			st.entry = false
			st.touched = true
			st.lastOp, st.lastLine = fn.Name(), w.line(call.Pos())
		}
	}
}

// summaryBirths creates cells for tracked values a summarized callee
// returns (wrapper constructors).
func (w *funcWalker) summaryBirths(call *ast.CallExpr, fn *types.Func, sum *lifeSummary, env *lifeEnv) int {
	ret := -1
	for i := 0; i < len(sum.rets); i++ {
		r, ok := sum.rets[i]
		if !ok || r.spec == nil || r.states == 0 || r.spec.pkgPath == w.p.Path {
			continue
		}
		idx := w.birth(call, r.spec, r.states, fn.Name(), false, env)
		if ret < 0 {
			ret = idx
		}
	}
	return ret
}

// displayName renders Recv.Method or Func for traces.
func displayName(fn *types.Func) string {
	if key := lifeFuncKey(fn); key != "" {
		return strings.TrimPrefix(key, fn.Pkg().Path()+".")
	}
	return fn.Name()
}
