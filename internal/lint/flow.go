package lint

import (
	"go/ast"
	"go/types"
	"reflect"
)

// The flow engine is the intraprocedural abstract interpreter lifelint
// and ordlint share (semantics: DESIGN.md §8). It owns control flow —
// branch fork/join, clause joins, loop fixpoints, the terminator set —
// and the summary driver; each analyzer owns its lattice, its
// leaf-statement transfer functions, its expression evaluator and its
// rules. break/continue/goto fall through; the loop fixpoint absorbs
// the imprecision. flowStats records whether each fixpoint settled
// before its cap: a cut-off fixpoint leaves summaries unsound without
// any finding saying so.

const (
	flowLoopCap  = 4 // iterations of one loop fixpoint
	flowRoundCap = 5 // rounds of the interprocedural summary fixpoint
)

// flowEnv is an analyzer's abstract state of one path: a pointer to T
// that forks (clone) and merges another path into itself (join,
// reporting whether anything changed).
type flowEnv[T any] interface {
	*T
	clone() *T
	join(other *T) bool
}

// flowHooks are the analyzer's transfer functions. eval interprets an
// expression for its effects (expression statements, conditions,
// switch tags, case values); refine narrows a fork by a branch
// condition being true (sense) or false; selectEdge runs once before a
// select's clauses.
type flowHooks[T any] interface {
	eval(env *T, e ast.Expr)
	assign(env *T, st *ast.AssignStmt)
	decl(env *T, vs *ast.ValueSpec)
	incDec(env *T, st *ast.IncDecStmt)
	send(env *T, st *ast.SendStmt)
	goStmt(env *T, st *ast.GoStmt)
	deferStmt(env *T, st *ast.DeferStmt)
	returnStmt(env *T, st *ast.ReturnStmt)
	rangeHead(env *T, st *ast.RangeStmt)
	refine(env *T, cond ast.Expr, sense bool)
	selectEdge(env *T)
}

// flowStats reports how an analyzer's fixpoints ended.
type flowStats struct {
	rounds      int  // summary rounds run
	unsettled   bool // the last round still changed a summary
	cappedLoops int  // loop fixpoints stopped at flowLoopCap
}

func (s *flowStats) converged() bool { return !s.unsettled && s.cappedLoops == 0 }

// flow interprets statements for one function walk.
type flow[T any, E flowEnv[T]] struct {
	p     *Package
	hooks flowHooks[T]
	stats *flowStats
}

// block interprets a statement list; true means every path ended.
func (f *flow[T, E]) block(env *T, list []ast.Stmt) bool {
	for _, s := range list {
		if f.stmt(env, s) {
			return true
		}
	}
	return false
}

// stmt interprets one statement; true means every path ended.
func (f *flow[T, E]) stmt(env *T, s ast.Stmt) bool {
	h := f.hooks
	switch st := s.(type) {
	case *ast.BlockStmt:
		return f.block(env, st.List)
	case *ast.LabeledStmt:
		return f.stmt(env, st.Stmt)
	case *ast.ExprStmt:
		h.eval(env, st.X)
		call, ok := ast.Unparen(st.X).(*ast.CallExpr)
		return ok && f.terminates(call)
	case *ast.ReturnStmt:
		h.returnStmt(env, st)
		return true
	case *ast.AssignStmt:
		h.assign(env, st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					h.decl(env, vs)
				}
			}
		}
	case *ast.IncDecStmt:
		h.incDec(env, st)
	case *ast.SendStmt:
		h.send(env, st)
	case *ast.GoStmt:
		h.goStmt(env, st)
	case *ast.DeferStmt:
		h.deferStmt(env, st)
	case *ast.IfStmt:
		return f.ifStmt(env, st)
	case *ast.ForStmt:
		if st.Init != nil {
			f.stmt(env, st.Init)
		}
		f.loop(env, st.Cond, st.Body, st.Post)
	case *ast.RangeStmt:
		h.rangeHead(env, st)
		f.loop(env, nil, st.Body, nil)
	case *ast.SwitchStmt:
		if st.Init != nil {
			f.stmt(env, st.Init)
		}
		if st.Tag != nil {
			h.eval(env, st.Tag)
		}
		return f.clauses(env, st.Body, hasDefaultClause(st.Body))
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			f.stmt(env, st.Init)
		}
		f.stmt(env, st.Assign)
		return f.clauses(env, st.Body, hasDefaultClause(st.Body))
	case *ast.SelectStmt:
		h.selectEdge(env)
		return f.clauses(env, st.Body, true)
	}
	return false
}

func (f *flow[T, E]) ifStmt(env *T, st *ast.IfStmt) bool {
	if st.Init != nil {
		f.stmt(env, st.Init)
	}
	f.hooks.eval(env, st.Cond)
	thenEnv, elseEnv := E(env).clone(), E(env).clone()
	f.hooks.refine(thenEnv, st.Cond, true)
	f.hooks.refine(elseEnv, st.Cond, false)
	thenEnded := f.stmt(thenEnv, st.Body)
	elseEnded := st.Else != nil && f.stmt(elseEnv, st.Else)
	switch {
	case thenEnded && elseEnded:
		return true
	case thenEnded:
		*env = *elseEnv
	case elseEnded:
		*env = *thenEnv
	default:
		E(thenEnv).join(elseEnv)
		*env = *thenEnv
	}
	return false
}

// loop runs a for or range body to its fixpoint (cond and post are
// nil for range).
func (f *flow[T, E]) loop(env *T, cond ast.Expr, body *ast.BlockStmt, post ast.Stmt) {
	for i := 0; ; i++ {
		if i == flowLoopCap {
			f.stats.cappedLoops++
			break
		}
		if cond != nil {
			f.hooks.eval(env, cond)
		}
		iter := E(env).clone()
		if cond != nil {
			f.hooks.refine(iter, cond, true)
		}
		if f.stmt(iter, body) {
			break
		}
		if post != nil {
			f.stmt(iter, post)
		}
		if !E(env).join(iter) {
			break
		}
	}
	if cond != nil {
		f.hooks.refine(env, cond, false)
	}
}

// clauses runs each case or comm clause on a fork of env and joins the
// clauses that fall through; unless one clause must run (exhaustive),
// the entry state joins last.
func (f *flow[T, E]) clauses(env *T, body *ast.BlockStmt, exhaustive bool) bool {
	var merged *T
	for _, c := range body.List {
		branch := E(env).clone()
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				f.hooks.eval(branch, e)
			}
			list = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				f.stmt(branch, cc.Comm)
			}
			list = cc.Body
		}
		if f.block(branch, list) {
			continue
		}
		if merged == nil {
			merged = branch
		} else {
			E(merged).join(branch)
		}
	}
	if merged == nil {
		return exhaustive
	}
	if !exhaustive {
		E(merged).join(env)
	}
	*env = *merged
	return false
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, cs := range body.List {
		if c, ok := cs.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}

// terminates recognizes the calls that end the goroutine or process.
func (f *flow[T, E]) terminates(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := f.p.Info.Uses[id].(*types.Builtin); ok {
			return b.Name() == "panic"
		}
	}
	fn := calleeFunc(f.p, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() + "." + fn.Name() {
	case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
		return true
	}
	return false
}

// flowFunc is one function declaration the driver analyzes.
type flowFunc struct {
	p   *Package
	fd  *ast.FuncDecl
	key string // summary key (declFuncKey); "" keeps no summary
}

// flowFuncs lists the function declarations with bodies in the
// packages keep accepts (nil accepts all).
func flowFuncs(pkgs []*Package, keep func(*Package) bool) []flowFunc {
	var fns []flowFunc
	for _, p := range pkgs {
		if keep != nil && !keep(p) {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					fns = append(fns, flowFunc{p, fd, declFuncKey(p, fd)})
				}
			}
		}
	}
	return fns
}

// flowSummaries runs the summary fixpoint and then the reporting pass.
// analyze interprets one function and returns its summary; findings is
// nil during the summary rounds. Summaries compare with
// reflect.DeepEqual, so a summary type must always allocate its maps
// (a nil map and an empty one differ).
func flowSummaries[S any](fns []flowFunc, sums map[string]S, stats *flowStats, analyze func(fn *flowFunc, findings *[]Finding) S) []Finding {
	changed := true
	for ; changed && stats.rounds < flowRoundCap; stats.rounds++ {
		changed = false
		for i := range fns {
			sum := analyze(&fns[i], nil)
			if key := fns[i].key; key != "" && !reflect.DeepEqual(sum, sums[key]) {
				sums[key] = sum
				changed = true
			}
		}
	}
	stats.unsettled = changed

	var out []Finding
	seen := make(map[string]bool)
	for i := range fns {
		var fs []Finding
		analyze(&fns[i], &fs)
		for _, f := range fs {
			if k := f.String(); !seen[k] {
				seen[k] = true
				out = append(out, f)
			}
		}
	}
	return out
}
