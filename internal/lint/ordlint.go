package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ordlint is the happens-before publication analyzer for the
// real-concurrency domain. The lock-free protocols in internal/acopy
// (and any future ones) publish data by storing a synchronization
// word — a slot pointer's valid bit, a completion flag, a ring
// cursor — and consume it with the matching acquire load. The Go
// memory model makes that safe only when every write to the published
// data happens before the releasing store and every cross-goroutine
// read happens after the acquiring load; a single misordered access
// is a data race -race hits one interleaving in a thousand. ordlint
// checks the declared //copier:ordered contracts (ordspec.go)
// statically on the flow engine it shares with lifelint (flow.go): per
// function with branch/loop joins and across calls with summaries:
//
//   - pub-before-init: a write to a guarded field on a path where the
//     guarding word may already have been published (the release gave
//     the field away; a consumer can observe the half-written value).
//   - unordered-read: a read of a guarded field not dominated by a
//     consume of the guarding word (no acquire edge orders the read
//     after the publisher's writes).
//   - raw-atomic: a call to a package-level sync/atomic function
//     (atomic.AddInt64, atomic.LoadUint64, ...), in any package. With
//     no raw call left, the typed wrappers (atomic.Uint64 etc.) are the
//     only way to reach a shared word, so an atomic and a plain access
//     to the same field cannot both exist. Suppressing the rule gives
//     that guarantee up; the fix is to type the word.
//   - spin-unbounded: a loop that polls an atomic without a
//     //copier:spin annotation, or an annotated spin site with no
//     yield/park escape in the loop.
//   - ord-spec: a malformed //copier:ordered or //copier:spin
//     directive (emitted by ordspec.go).
//
// Every rule runs on every loaded package: raw-atomic and
// spin-unbounded need a sync/atomic call to fire, and the flow rules
// follow the //copier:ordered specs wherever they are declared or
// imported.
//
// Documented coarseness (the model is acquire-shaped, not value-
// shaped):
//
//   - An atomic load of a word is a consume regardless of the value
//     branched on: observing the load at all establishes the edge.
//   - Any channel operation, select, or sync.* call is assumed to
//     establish happens-before for everything tracked (the Go memory
//     model gives lock regions and channel pairs their own edges;
//     ordlint checks the lock-free word protocols, not lock
//     discipline).
//   - Storing a zero value into a word is a clear (reset), not a
//     publication: the resetter owns the protected fields again.
//   - RMW ops (Add/Or/Swap/CompareAndSwap) are acquire+release.
//   - Objects are tracked per root variable: locals and parameters.
//     A newly defined local starts owned (no other goroutine can
//     reach it yet); a parameter is entry-symbolic — unordered reads
//     through it become entry requirements checked at every call
//     site. Inside a `go` closure every captured object starts raw:
//     a fresh goroutine has no ordering edges.
//   - CAS-retry loops are lock-free, not spins; counter-bounded scans
//     are finite. Neither needs a //copier:spin site.
//   - len/cap of a guarded slice read only the immutable header.

// ordLint runs the four passes: spec collection (grammar findings),
// raw-call detection, spin-loop hygiene, and the happens-before flow
// analysis, recording how its fixpoints ended in stats.
func ordLint(pkgs []*Package, stats *flowStats) []Finding {
	specs, out := collectOrdSpecs(pkgs)
	oc := &ordChecker{specs: specs, summaries: make(map[string]*ordSummary), stats: stats}
	out = append(out, rawAtomics(pkgs)...)
	out = append(out, oc.spinLoops(pkgs)...)
	out = append(out, oc.flowFindings(pkgs)...)
	return out
}

// --- atomic call classification --------------------------------------

type ordOpKind int

const (
	ordOpLoad  ordOpKind = iota // acquire
	ordOpStore                  // release (or clear, for zero values)
	ordOpRMW                    // acquire+release
)

// ordOp describes one recognized sync/atomic operation.
type ordOp struct {
	kind     ordOpKind
	cas      bool              // CompareAndSwap family
	fieldSel *ast.SelectorExpr // the x.f selector operated on, if any
	indices  []ast.Expr        // index exprs unwrapped from the operand chain
	args     []ast.Expr        // value operands (to walk as reads)
	zero     bool              // store of a zero value
}

// classifyAtomicCall recognizes both access styles: a method on one
// of the typed sync/atomic wrappers, and a raw package-level
// sync/atomic function taking &x.f.
func classifyAtomicCall(p *Package, call *ast.CallExpr) (ordOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ordOp{}, false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return ordOp{}, false
	}
	var op ordOp
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		// Typed wrapper method: x.f.Load(), r.slots[i].Store(h), ...
		op.fieldSel, op.indices = unwrapFieldOperand(sel.X)
		op.args = call.Args
	} else {
		// Raw call: atomic.LoadUint64(&r.tail).
		if len(call.Args) == 0 {
			return ordOp{}, false
		}
		addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
		if !ok || addr.Op != token.AND {
			return ordOp{}, false
		}
		op.fieldSel, op.indices = unwrapFieldOperand(addr.X)
		op.args = call.Args[1:]
	}
	switch name := fn.Name(); {
	case strings.HasPrefix(name, "Load"):
		op.kind = ordOpLoad
	case strings.HasPrefix(name, "Store"):
		op.kind = ordOpStore
		if len(op.args) > 0 && isZeroExpr(p, op.args[len(op.args)-1]) {
			op.zero = true
		}
	case strings.HasPrefix(name, "CompareAndSwap"):
		op.kind, op.cas = ordOpRMW, true
	default: // Add, Swap, And, Or
		op.kind = ordOpRMW
	}
	return op, true
}

// unwrapFieldOperand peels parens, stars and index expressions off an
// operand, returning the innermost selector (if any) plus the index
// expressions passed through (the caller walks them as reads).
func unwrapFieldOperand(e ast.Expr) (*ast.SelectorExpr, []ast.Expr) {
	var indices []ast.Expr
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			indices = append(indices, x.Index)
			e = x.X
		case *ast.SelectorExpr:
			return x, indices
		default:
			return nil, indices
		}
	}
}

// isZeroExpr reports whether e is a constant zero/false/nil.
func isZeroExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok {
		return false
	}
	if tv.IsNil() {
		return true
	}
	if tv.Value == nil {
		return false
	}
	return strings.TrimLeft(tv.Value.ExactString(), "+-") == "0" ||
		tv.Value.ExactString() == "false"
}

// ordResolveField resolves a field selector to its root variable, the
// owning type's identity key, and the field name. The root must be a
// plain variable reached through selectors/indexing — anything else
// is untracked.
func ordResolveField(p *Package, sel *ast.SelectorExpr) (root types.Object, typeKey, field string, ok bool) {
	v, recv, ok := selField(p, sel)
	typeKey = lifeTypeKey(recv)
	if !ok || typeKey == "" {
		return nil, "", "", false
	}
	// Root: the base identifier under the selector chain.
	e := ast.Expr(sel.X)
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			id, isIdent := e.(*ast.Ident)
			if !isIdent {
				return nil, "", "", false
			}
			o := rootVar(p, id)
			return o, typeKey, v.Name(), o != nil
		}
	}
}

// selField resolves a selector that names a struct field to the field
// and the type that owns it, pointers peeled.
func selField(p *Package, sel *ast.SelectorExpr) (*types.Var, types.Type, bool) {
	s, found := p.Info.Selections[sel]
	if !found || s.Kind() != types.FieldVal {
		return nil, nil, false
	}
	v, isVar := s.Obj().(*types.Var)
	if !isVar || !v.IsField() || v.Pkg() == nil {
		return nil, nil, false
	}
	recv := s.Recv()
	for {
		ptr, isPtr := recv.(*types.Pointer)
		if !isPtr {
			return v, recv, true
		}
		recv = ptr.Elem()
	}
}

// fieldName renders the struct field a selector denotes as
// Type.field, for messages.
func fieldName(p *Package, sel *ast.SelectorExpr) (string, bool) {
	v, recv, ok := selField(p, sel)
	if !ok {
		return "", false
	}
	recvName := recv.String()
	if named, isNamed := recv.(*types.Named); isNamed && named.Obj() != nil {
		recvName = named.Obj().Name()
	}
	return recvName + "." + v.Name(), true
}

// --- raw-atomic -------------------------------------------------------

// rawAtomics flags every call to a package-level sync/atomic function.
// Such a call reaches a word of plain type (int64, uint64,
// unsafe.Pointer, ...), which any other code may also load or store
// plainly; a typed wrapper allows no access but its own methods.
func rawAtomics(pkgs []*Package) []Finding {
	var out []Finding
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
					fn.Type().(*types.Signature).Recv() != nil {
					return true
				}
				out = append(out, Finding{
					Pos:  p.Position(call.Pos()),
					Rule: RuleOrdRawAtomic,
					Msg:  fmt.Sprintf("raw atomic.%s on a plain word: nothing forces the word's other accesses to be atomic", fn.Name()),
					Hint: "make the word a typed atomic (atomic.Uint64 etc.) so every access is atomic by construction",
				})
				return true
			})
		}
	}
	return out
}

// --- spin-unbounded ---------------------------------------------------

// loopRegion summarizes a for-loop's own region: its init/cond/post
// and body excluding nested loops and function literals.
type loopRegion struct {
	pollName string // display name of the first polled atomic, if any
	polls    bool   // a direct atomic load sits in the region
	cas      bool   // a CompareAndSwap sits in the region (lock-free retry)
	escape   bool   // a yield/park escape sits in the region
	bounded  bool   // cond is a pure comparison over a loop-written local
}

// spinLoops enforces spin-site hygiene: every polling loop carries a
// //copier:spin annotation, and every annotated loop has an escape.
func (oc *ordChecker) spinLoops(pkgs []*Package) []Finding {
	var out []Finding
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				_, fnSpin := docSpin(fd.Doc)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					fs, ok := n.(*ast.ForStmt)
					if !ok {
						return true
					}
					pos := p.Position(fs.Pos())
					region := scanLoopRegion(p, fs)
					_, annotated := oc.specs.spinReason(pos.Filename, pos.Line)
					annotated = annotated || fnSpin
					if annotated && !region.escape {
						out = append(out, Finding{
							Pos:  pos,
							Rule: RuleOrdSpinUnbounded,
							Msg:  "//copier:spin site has no yield or park escape in the loop",
							Hint: "add runtime.Gosched, a channel wait, select, or cond.Wait so the spin cannot monopolize a CPU",
						})
						return true
					}
					if !annotated && region.polls && !region.cas && !region.bounded {
						out = append(out, Finding{
							Pos:  pos,
							Rule: RuleOrdSpinUnbounded,
							Msg:  fmt.Sprintf("loop polls %s with no //copier:spin site", region.pollName),
							Hint: "annotate the loop with //copier:spin <why the spin is bounded / how it parks> and keep a Gosched/park escape",
						})
					}
					return true
				})
			}
		}
	}
	return out
}

// scanLoopRegion walks a for-loop's own region, pruning nested loops
// and function literals (their spins are their own sites).
func scanLoopRegion(p *Package, fs *ast.ForStmt) loopRegion {
	var r loopRegion
	written := make(map[types.Object]bool) // locals assigned in the region
	markWritten := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if o := p.Info.ObjectOf(id); o != nil {
				written[o] = true
			}
		}
	}
	visit := func(root ast.Node) {
		if root == nil {
			return
		}
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ForStmt:
				if x != fs {
					return false
				}
			case *ast.RangeStmt, *ast.FuncLit:
				return false
			case *ast.SelectStmt:
				r.escape = true
			case *ast.SendStmt:
				r.escape = true
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					r.escape = true
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					markWritten(lhs)
				}
			case *ast.IncDecStmt:
				markWritten(x.X)
			case *ast.CallExpr:
				if op, ok := classifyAtomicCall(p, x); ok {
					if op.cas {
						r.cas = true
					}
					if op.kind == ordOpLoad && !r.polls {
						r.polls = true
						r.pollName = "an atomic word"
						if op.fieldSel != nil {
							if name, ok := fieldName(p, op.fieldSel); ok {
								r.pollName = name
							}
						}
					}
					return true
				}
				if fn := calleeFunc(p, x); fn != nil && fn.Pkg() != nil {
					switch {
					case fn.Pkg().Path() == "runtime" && (fn.Name() == "Gosched" || fn.Name() == "Goexit"):
						r.escape = true
					case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
						r.escape = true
					case fn.Pkg().Path() == "sync" &&
						(fn.Name() == "Wait" || fn.Name() == "Lock" || fn.Name() == "RLock"):
						r.escape = true
					case fn.Name() == "procyield" || fn.Name() == "yield":
						r.escape = true
					}
				}
			}
			return true
		})
	}
	visit(fs.Init)
	visit(fs.Cond)
	visit(fs.Post)
	if fs.Body != nil {
		for _, s := range fs.Body.List {
			visit(s)
		}
	}
	// Bounded scan: a pure condition (no calls beyond len/cap and
	// conversions, no atomics) over a local the loop itself advances.
	if fs.Cond != nil {
		pure, refsWritten := true, false
		ast.Inspect(fs.Cond, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if _, isAtomic := classifyAtomicCall(p, x); isAtomic {
					pure = false
					return false
				}
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
					if id.Name == "len" || id.Name == "cap" {
						return true
					}
				}
				if tv, ok := p.Info.Types[x.Fun]; ok && tv.IsType() {
					return true // conversion
				}
				pure = false
				return false
			case *ast.Ident:
				if o := p.Info.Uses[x]; o != nil && written[o] {
					refsWritten = true
				}
			}
			return true
		})
		r.bounded = pure && refsWritten
	}
	return r
}

// --- happens-before flow analysis ------------------------------------

// ordChecker runs the flow analysis: per-function abstract
// interpretation over (root variable, declared word) states, plus a
// summary fixpoint so ordering established (or required) inside a
// callee propagates to its callers.
type ordChecker struct {
	specs     *ordSpecs
	summaries map[string]*ordSummary
	stats     *flowStats
}

// ordWordKey identifies one tracked (object, word) pair.
type ordWordKey struct {
	obj  types.Object
	word *ordWord
}

// ordWordState is the pair's state on one path. consumed holds on
// every path into this point (acquire dominates); published may hold
// on some path (release may have happened).
type ordWordState struct {
	consumed  bool
	published bool
	pubLine   int // where the publish happened, for traces
}

// ordFieldKey identifies one (object, guarded field) pair.
type ordFieldKey struct {
	obj   types.Object
	spec  *ordSpec
	field string
}

// ordEnv is the abstract state of one path.
type ordEnv struct {
	word  map[ordWordKey]ordWordState
	wrote map[ordFieldKey]bool // this goroutine wrote the field on every path
	// ordered is the default state of pairs not tracked in word: after
	// a laundering edge (channel op, select, sync.* call) EVERY word —
	// including ones this function has not touched yet — is ordered,
	// so untracked pairs read as consumed.
	ordered bool
}

// state returns the pair's effective state, applying the laundered
// default for pairs without an explicit entry.
func (e *ordEnv) state(k ordWordKey) ordWordState {
	if v, ok := e.word[k]; ok {
		return v
	}
	return ordWordState{consumed: e.ordered}
}

func newOrdEnv() *ordEnv {
	return &ordEnv{
		word:  make(map[ordWordKey]ordWordState),
		wrote: make(map[ordFieldKey]bool),
	}
}

func (e *ordEnv) clone() *ordEnv {
	c := newOrdEnv()
	c.ordered = e.ordered
	for k, v := range e.word {
		c.word[k] = v
	}
	for k, v := range e.wrote {
		c.wrote[k] = v
	}
	return c
}

// join merges another path into e: consumed/wrote intersect (must
// hold on all paths), published unions (may hold on any). The change
// report ignores pubLine, so loop fixpoints settle on state, not on
// trace positions.
func (e *ordEnv) join(o *ordEnv) bool {
	changed := false
	keys := make(map[ordWordKey]bool, len(e.word)+len(o.word))
	for k := range e.word {
		keys[k] = true
	}
	for k := range o.word {
		keys[k] = true
	}
	for k := range keys {
		a, b := e.state(k), o.state(k)
		m := ordWordState{
			consumed:  a.consumed && b.consumed,
			published: a.published || b.published,
			pubLine:   a.pubLine,
		}
		if !a.published && b.published {
			m.pubLine = b.pubLine
		}
		changed = changed || m.consumed != a.consumed || m.published != a.published
		e.word[k] = m
	}
	for k := range e.wrote {
		if !o.wrote[k] {
			delete(e.wrote, k)
			changed = true
		}
	}
	changed = changed || e.ordered && !o.ordered
	e.ordered = e.ordered && o.ordered
	return changed
}

// launder applies a Go-memory-model edge that orders everything:
// channel ops, select, and sync.* calls. Every tracked word becomes
// consumed and un-published.
func (e *ordEnv) launder() {
	for k, v := range e.word {
		v.consumed, v.published = true, false
		e.word[k] = v
	}
	e.ordered = true
}

// launderObj launders just one object's words (its address escaped
// into an unknown call, which may synchronize however it likes).
func (e *ordEnv) launderObj(obj types.Object, spec *ordSpec) {
	for _, w := range spec.Words {
		e.word[ordWordKey{obj, w}] = ordWordState{consumed: true}
	}
}

// own marks obj as freshly created (or reset) by this goroutine: all
// words consumed, nothing published.
func (e *ordEnv) own(obj types.Object, spec *ordSpec) {
	e.launderObj(obj, spec)
	for _, w := range spec.Words {
		for _, g := range w.Guards {
			e.wrote[ordFieldKey{obj, spec, g}] = true
		}
	}
}

// --- interprocedural summaries ---------------------------------------

// ordParamSum is what one governed parameter's protocol looks like
// from outside the function.
type ordParamSum struct {
	spec      *ordSpec
	requires  map[*ordWord]bool // must be consumed at entry
	acquires  map[*ordWord]bool // consumed at some point inside
	consumes  map[*ordWord]bool // consumed at every return
	publishes map[*ordWord]bool // published (and not re-consumed) at some return
	writes    map[string]bool   // guarded fields written inside
}

func newOrdParamSum(spec *ordSpec) *ordParamSum {
	return &ordParamSum{
		spec:      spec,
		requires:  make(map[*ordWord]bool),
		acquires:  make(map[*ordWord]bool),
		consumes:  make(map[*ordWord]bool),
		publishes: make(map[*ordWord]bool),
		writes:    make(map[string]bool),
	}
}

// ordSummary is one function's summary; params is flattened
// [receiver?, params...] with nil entries for ungoverned slots.
type ordSummary struct {
	params []*ordParamSum
}

// flowFindings runs the summary fixpoint and then a reporting pass
// over every function of the packages that declare or import a
// governed type.
func (oc *ordChecker) flowFindings(pkgs []*Package) []Finding {
	if len(oc.specs.byType) == 0 {
		return nil
	}
	specPkgs := make(map[string]bool)
	for _, s := range oc.specs.byType {
		specPkgs[s.PkgPath] = true
	}
	fns := flowFuncs(pkgs, func(p *Package) bool {
		if specPkgs[p.Path] {
			return true
		}
		if p.Types != nil {
			for _, imp := range p.Types.Imports() {
				if specPkgs[imp.Path()] {
					return true
				}
			}
		}
		return false
	})
	return flowSummaries(fns, oc.summaries, oc.stats, func(fn *flowFunc, findings *[]Finding) *ordSummary {
		w := oc.newWalker(fn, findings)
		w.run()
		return w.sum
	})
}

// govSpec returns the ordering spec governing t (through pointers).
func (oc *ordChecker) govSpec(t types.Type) *ordSpec {
	return oc.specs.byType[lifeTypeKey(t)]
}

// --- per-function walker ----------------------------------------------

// ordWalker interprets one function body. The same walker computes
// the summary (findings == nil) and, once summaries are stable, emits
// findings.
type ordWalker struct {
	flow[ordEnv, *ordEnv]
	oc        *ordChecker
	p         *Package
	fd        *ast.FuncDecl
	entryObjs []types.Object // flattened [receiver?, params...]; nil = ungoverned
	entryIdx  map[types.Object]int
	sum       *ordSummary
	findings  *[]Finding // nil during summary rounds
	inGo      int        // >0 while interpreting a `go` closure body
	inLit     int        // >0 while interpreting a synchronous func literal
	exits     []*ordEnv
}

func (oc *ordChecker) newWalker(fn *flowFunc, findings *[]Finding) *ordWalker {
	p, fd := fn.p, fn.fd
	w := &ordWalker{
		oc: oc, p: p, fd: fd, findings: findings,
		entryIdx: make(map[types.Object]int),
	}
	w.flow = flow[ordEnv, *ordEnv]{p: p, hooks: w, stats: oc.stats}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				w.entryObjs = append(w.entryObjs, nil)
				continue
			}
			for _, n := range f.Names {
				o := p.Info.Defs[n]
				if o != nil && oc.govSpec(o.Type()) != nil {
					w.entryIdx[o] = len(w.entryObjs)
					w.entryObjs = append(w.entryObjs, o)
				} else {
					w.entryObjs = append(w.entryObjs, nil)
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	w.sum = &ordSummary{params: make([]*ordParamSum, len(w.entryObjs))}
	for i, o := range w.entryObjs {
		if o != nil {
			w.sum.params[i] = newOrdParamSum(oc.govSpec(o.Type()))
		}
	}
	return w
}

// emit records a finding; callers check findings != nil, and the driver
// drops the repeats loop re-walks produce.
func (w *ordWalker) emit(f Finding) { *w.findings = append(*w.findings, f) }

func (w *ordWalker) run() {
	env := newOrdEnv()
	if !w.block(env, w.fd.Body.List) {
		w.exits = append(w.exits, env)
	}
	// Fold the exits into the summary: consumed must hold at every
	// exit, published at any.
	for i, o := range w.entryObjs {
		ps := w.sum.params[i]
		if o == nil || ps == nil {
			continue
		}
		for _, word := range ps.spec.Words {
			k := ordWordKey{o, word}
			allConsumed := len(w.exits) > 0
			anyPublished := false
			for _, e := range w.exits {
				st := e.state(k)
				allConsumed = allConsumed && st.consumed
				anyPublished = anyPublished || st.published
			}
			if allConsumed {
				ps.consumes[word] = true
			}
			if anyPublished {
				ps.publishes[word] = true
			}
		}
	}
}

// --- statements -------------------------------------------------------

// The flow engine (flow.go) owns control flow; these are ordlint's
// transfer functions for the leaf statements.

func (w *ordWalker) returnStmt(env *ordEnv, st *ast.ReturnStmt) {
	for _, r := range st.Results {
		w.eval(env, r)
	}
	if w.inGo == 0 && w.inLit == 0 {
		w.exits = append(w.exits, env.clone())
	}
}

func (w *ordWalker) incDec(env *ordEnv, st *ast.IncDecStmt) {
	w.eval(env, st.X) // read
	w.writeTarget(env, st.X)
}

func (w *ordWalker) decl(env *ordEnv, vs *ast.ValueSpec) {
	for _, v := range vs.Values {
		w.eval(env, v)
	}
	for _, n := range vs.Names {
		w.define(env, n, nil)
	}
}

func (w *ordWalker) rangeHead(env *ordEnv, st *ast.RangeStmt) {
	w.eval(env, st.X)
	if id, ok := st.Key.(*ast.Ident); ok && id.Name != "_" {
		w.define(env, id, nil)
	}
	if id, ok := st.Value.(*ast.Ident); ok && id.Name != "_" {
		w.define(env, id, nil)
	}
}

// selectEdge: select blocks on a channel, an ordering edge.
func (w *ordWalker) selectEdge(env *ordEnv) { env.launder() }

func (w *ordWalker) send(env *ordEnv, st *ast.SendStmt) {
	w.eval(env, st.Chan)
	w.eval(env, st.Value)
	env.launder()
}

// deferStmt: args are evaluated now; the call's effects happen at exit
// (where they can no longer order anything we check).
func (w *ordWalker) deferStmt(env *ordEnv, st *ast.DeferStmt) {
	w.eval(env, st.Call.Fun)
	for _, a := range st.Call.Args {
		w.eval(env, a)
	}
}

// refine: the model is acquire-shaped, so branch conditions narrow
// nothing.
func (w *ordWalker) refine(*ordEnv, ast.Expr, bool) {}

// goStmt interprets a spawned goroutine body under a fresh, raw
// environment: the new goroutine has no ordering edges until it makes
// its own.
func (w *ordWalker) goStmt(env *ordEnv, st *ast.GoStmt) {
	for _, a := range st.Call.Args {
		w.eval(env, a) // args evaluate in the spawning goroutine
	}
	w.inGo++
	fresh := newOrdEnv()
	if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
		w.block(fresh, lit.Body.List)
	} else {
		// go obj.Method(...): the callee starts on a goroutine with no
		// edges; check its entry requirements against a raw state.
		w.call(fresh, st.Call)
	}
	w.inGo--
}

// assign handles reads on the RHS, guarded-field writes on the LHS,
// and (re)bindings of governed locals.
func (w *ordWalker) assign(env *ordEnv, st *ast.AssignStmt) {
	for _, r := range st.Rhs {
		w.eval(env, r)
	}
	for i, lhs := range st.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			var from ast.Expr
			if len(st.Rhs) == len(st.Lhs) {
				from = st.Rhs[i]
			}
			w.define(env, id, from)
			continue
		}
		w.writeTarget(env, lhs)
	}
}

// define (re)binds a governed identifier. A binding copied from
// another tracked variable aliases its state; any other source makes
// the variable owned — freshly created values (composite literals,
// new, pool gets) are unreachable by other goroutines, and laundering
// sources (channel receives) already carry their own edge.
func (w *ordWalker) define(env *ordEnv, id *ast.Ident, from ast.Expr) {
	obj := w.p.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	spec := w.oc.govSpec(obj.Type())
	if spec == nil {
		return
	}
	if from != nil {
		if srcID, ok := ast.Unparen(from).(*ast.Ident); ok {
			src := w.p.Info.Uses[srcID]
			if src != nil && w.oc.govSpec(src.Type()) == spec {
				for _, word := range spec.Words {
					env.word[ordWordKey{obj, word}] = env.state(ordWordKey{src, word})
					for _, g := range word.Guards {
						env.wrote[ordFieldKey{obj, spec, g}] = env.wrote[ordFieldKey{src, spec, g}]
					}
				}
				return
			}
		}
	}
	env.own(obj, spec)
}

// writeTarget applies a write to an assignment target that is not a
// plain identifier (guarded-field stores land here).
func (w *ordWalker) writeTarget(env *ordEnv, lhs ast.Expr) {
	sel, indices := unwrapFieldOperand(lhs)
	for _, ix := range indices {
		w.eval(env, ix)
	}
	if sel == nil {
		return
	}
	root, typeKey, field, ok := ordResolveField(w.p, sel)
	if spec := w.oc.specs.byType[typeKey]; ok && spec != nil && len(spec.guardedBy(field)) > 0 {
		w.writeGuard(env, sel.Pos(), root, spec, field)
		return
	}
	w.eval(env, sel.X) // plain field write: the base is still read
}

// --- expressions ------------------------------------------------------

func (w *ordWalker) eval(env *ordEnv, e ast.Expr) {
	switch x := e.(type) {
	case nil:
	case *ast.Ident, *ast.BasicLit:
	case *ast.SelectorExpr:
		w.readSel(env, x)
	case *ast.CallExpr:
		w.call(env, x)
	case *ast.UnaryExpr:
		w.eval(env, x.X)
		if x.Op == token.ARROW {
			env.launder() // channel receive: an ordering edge
		}
	case *ast.BinaryExpr:
		w.eval(env, x.X)
		w.eval(env, x.Y)
	case *ast.ParenExpr:
		w.eval(env, x.X)
	case *ast.StarExpr:
		w.eval(env, x.X)
	case *ast.IndexExpr:
		w.eval(env, x.X)
		w.eval(env, x.Index)
	case *ast.SliceExpr:
		w.eval(env, x.X)
		w.eval(env, x.Low)
		w.eval(env, x.High)
		w.eval(env, x.Max)
	case *ast.TypeAssertExpr:
		w.eval(env, x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			w.eval(env, el)
		}
	case *ast.KeyValueExpr:
		w.eval(env, x.Key)
		w.eval(env, x.Value)
	case *ast.FuncLit:
		// A literal invoked (or invocable) on this goroutine: interpret
		// inline; its returns are its own, not the enclosing function's.
		w.inLit++
		w.block(env, x.Body.List)
		w.inLit--
	}
}

// readSel applies the unordered-read check to a guarded-field read.
func (w *ordWalker) readSel(env *ordEnv, sel *ast.SelectorExpr) {
	root, typeKey, field, ok := ordResolveField(w.p, sel)
	if ok {
		if spec := w.oc.specs.byType[typeKey]; spec != nil && len(spec.guardedBy(field)) > 0 {
			w.readGuard(env, sel.Pos(), root, spec, field)
		}
	}
	w.eval(env, sel.X)
}

func (w *ordWalker) call(env *ordEnv, call *ast.CallExpr) {
	// len/cap read only the immutable slice header, never the data.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := w.p.Info.Uses[id].(*types.Builtin); isB && (b.Name() == "len" || b.Name() == "cap") {
			return
		}
	}
	if op, ok := classifyAtomicCall(w.p, call); ok {
		for _, ix := range op.indices {
			w.eval(env, ix)
		}
		for _, a := range op.args {
			w.eval(env, a)
		}
		if op.fieldSel == nil {
			return // operation on a local atomic value
		}
		root, typeKey, field, okF := ordResolveField(w.p, op.fieldSel)
		if spec := w.oc.specs.byType[typeKey]; okF && spec != nil {
			if word := spec.word(field); word != nil {
				w.wordOp(env, call, root, word, op)
				return
			}
			if len(spec.guardedBy(field)) > 0 {
				switch op.kind {
				case ordOpLoad:
					w.readGuard(env, call.Pos(), root, spec, field)
				case ordOpStore:
					w.writeGuard(env, call.Pos(), root, spec, field)
				case ordOpRMW:
					w.readGuard(env, call.Pos(), root, spec, field)
					w.writeGuard(env, call.Pos(), root, spec, field)
				}
				return
			}
		}
		w.eval(env, op.fieldSel.X)
		return
	}

	fn := calleeFunc(w.p, call)
	// Any sync.* call is a memory-model edge (locks, conds, pools,
	// waitgroups): everything tracked is ordered after it.
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			w.eval(env, sel.X)
		}
		for _, a := range call.Args {
			w.eval(env, a)
		}
		env.launder()
		return
	}

	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.eval(env, sel.X)
	} else if _, isIdent := ast.Unparen(call.Fun).(*ast.Ident); !isIdent {
		w.eval(env, call.Fun)
	}
	for _, a := range call.Args {
		w.eval(env, a)
	}

	if fn == nil {
		// Dynamic call (stored handler, builtin): it may synchronize
		// however it likes — assume it does (optimistic).
		env.launder()
		return
	}
	if sum := w.oc.summaries[lifeFuncKey(fn)]; sum != nil {
		w.applySummary(env, call, fn, sum)
		return
	}
	// Unknown callee: governed arguments escape into it; assume it
	// orders what it touches.
	sig, _ := fn.Type().(*types.Signature)
	for _, e := range callOperands(call, sig) {
		if obj := ordArgRoot(w.p, e); obj != nil {
			if spec := w.oc.govSpec(obj.Type()); spec != nil {
				env.launderObj(obj, spec)
			}
		}
	}
}

// wordOp applies an atomic operation on a declared word.
func (w *ordWalker) wordOp(env *ordEnv, call *ast.CallExpr, root types.Object, word *ordWord, op ordOp) {
	if root == nil {
		return
	}
	k := ordWordKey{root, word}
	st := env.state(k)
	line := w.p.Position(call.Pos()).Line
	consume := func() {
		st.consumed, st.published = true, false
		if i, isEntry := w.entryIdx[root]; isEntry && w.inGo == 0 {
			w.sum.params[i].acquires[word] = true
		}
	}
	release := func() {
		st.published, st.pubLine = true, line
		// Publishing ends this writer's ownership of the guards.
		for _, g := range word.Guards {
			delete(env.wrote, ordFieldKey{root, word.Spec, g})
		}
	}
	switch {
	case op.kind == ordOpLoad:
		consume()
	case op.kind == ordOpStore && op.zero:
		consume() // a zero store is a clear: the resetter owns again
	case op.kind == ordOpStore:
		st.consumed = false
		release()
	case op.kind == ordOpRMW:
		consume()
		release()
	}
	env.word[k] = st
}

// readGuard checks one read of a guarded field.
func (w *ordWalker) readGuard(env *ordEnv, pos token.Pos, root types.Object, spec *ordSpec, field string) {
	if root == nil {
		return
	}
	if env.wrote[ordFieldKey{root, spec, field}] {
		return // reading our own un-published write
	}
	words := spec.guardedBy(field)
	var pubWord, firstWord *ordWord
	pubLine := 0
	for _, word := range words {
		st := env.state(ordWordKey{root, word})
		if st.consumed {
			return // acquire edge established
		}
		if st.published && pubWord == nil {
			pubWord, pubLine = word, st.pubLine
		}
		if firstWord == nil {
			firstWord = word
		}
	}
	if pubWord == nil {
		if i, isEntry := w.entryIdx[root]; isEntry && w.inGo == 0 {
			// Entry-symbolic: the caller must have consumed; record the
			// requirement and assume it holds from here on.
			w.sum.params[i].requires[firstWord] = true
			st := env.state(ordWordKey{root, firstWord})
			st.consumed = true
			env.word[ordWordKey{root, firstWord}] = st
			return
		}
	}
	if w.findings != nil {
		msg := fmt.Sprintf("read of %s.%s is not ordered after a consume of %s (no acquire on this path)",
			spec.TypeName, field, firstWord.Name)
		if pubWord != nil {
			msg = fmt.Sprintf("read of %s.%s after %s was published at line %d (the release gave the field away)",
				spec.TypeName, field, pubWord.Name, pubLine)
		}
		w.emit(Finding{
			Pos:  w.p.Position(pos),
			Rule: RuleOrdUnorderedRead,
			Msg:  msg,
			Hint: fmt.Sprintf("load %s first (acquire)", firstWord.Name),
		})
	}
	// Suppress cascading reports on this path.
	st := env.state(ordWordKey{root, firstWord})
	st.consumed, st.published = true, false
	env.word[ordWordKey{root, firstWord}] = st
}

// writeGuard checks one write of a guarded field.
func (w *ordWalker) writeGuard(env *ordEnv, pos token.Pos, root types.Object, spec *ordSpec, field string) {
	if root == nil {
		return
	}
	for _, word := range spec.guardedBy(field) {
		k := ordWordKey{root, word}
		st := env.state(k)
		if st.published {
			if w.findings != nil {
				w.emit(Finding{
					Pos:  w.p.Position(pos),
					Rule: RuleOrdPubBeforeInit,
					Msg: fmt.Sprintf("write to %s.%s after %s was published at line %d",
						spec.TypeName, field, word.Name, st.pubLine),
					Hint: fmt.Sprintf("finish every write to %s before the %s store that publishes it", field, word.Name),
				})
			}
			st.published = false // suppress cascades
			env.word[k] = st
		}
	}
	env.wrote[ordFieldKey{root, spec, field}] = true
	if i, isEntry := w.entryIdx[root]; isEntry && w.inGo == 0 {
		w.sum.params[i].writes[field] = true
	}
}

// --- summary application ----------------------------------------------

// callOperands flattens a call into [receiver?, args...] aligned with
// ordSummary.params.
func callOperands(call *ast.CallExpr, sig *types.Signature) []ast.Expr {
	var exprs []ast.Expr
	if sig != nil && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			exprs = append(exprs, sel.X)
		} else {
			exprs = append(exprs, nil) // method value: receiver unknown
		}
	}
	return append(exprs, call.Args...)
}

// ordArgRoot resolves an argument to a tracked root variable (ident
// or &ident, through parens).
func ordArgRoot(p *Package, e ast.Expr) types.Object {
	if e == nil {
		return nil
	}
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	if id, ok := e.(*ast.Ident); ok {
		return rootVar(p, id)
	}
	return nil
}

// rootVar is the variable an identifier names, or nil.
func rootVar(p *Package, id *ast.Ident) types.Object {
	if v, ok := p.Info.ObjectOf(id).(*types.Var); ok {
		return v
	}
	return nil
}

// applySummary replays a callee's summarized protocol effects on the
// caller's state, in callee execution order: entry requirements,
// internal acquires, writes, then exit consumes/publishes.
func (w *ordWalker) applySummary(env *ordEnv, call *ast.CallExpr, fn *types.Func, sum *ordSummary) {
	sig, _ := fn.Type().(*types.Signature)
	exprs := callOperands(call, sig)
	pos := w.p.Position(call.Pos())
	for i, ps := range sum.params {
		if ps == nil || i >= len(exprs) || exprs[i] == nil {
			continue
		}
		obj := ordArgRoot(w.p, exprs[i])
		if obj == nil || w.oc.govSpec(obj.Type()) != ps.spec {
			continue
		}
		entry, isEntry := w.entryIdx[obj]
		isEntry = isEntry && w.inGo == 0
		// 1. Entry requirements: the callee reads guarded state and
		// expects the acquire to have happened already.
		for _, word := range ps.spec.Words {
			if !ps.requires[word] {
				continue
			}
			k := ordWordKey{obj, word}
			st := env.state(k)
			if st.consumed {
				continue
			}
			if isEntry && !st.published {
				w.sum.params[entry].requires[word] = true
			} else if w.findings != nil {
				w.emit(Finding{
					Pos:  pos,
					Rule: RuleOrdUnorderedRead,
					Msg: fmt.Sprintf("%s reads %s-guarded fields of %s, but %s was not consumed on this path",
						fn.Name(), word.Name, ps.spec.TypeName, word.Name),
					Hint: fmt.Sprintf("load %s first (acquire) before handing the %s to %s", word.Name, ps.spec.TypeName, fn.Name()),
				})
			}
			st.consumed, st.published = true, false
			env.word[k] = st
		}
		// 2. Internal acquires re-establish ownership before the
		// callee's own writes (its body already checked that order).
		for _, word := range ps.spec.Words {
			if ps.acquires[word] || ps.consumes[word] {
				k := ordWordKey{obj, word}
				st := env.state(k)
				st.published = false
				env.word[k] = st
				if isEntry {
					w.sum.params[entry].acquires[word] = true
				}
			}
		}
		// 3. Callee writes guarded fields: a publish still pending on
		// the caller's side makes that a publish-before-init.
		for _, word := range ps.spec.Words {
			for _, g := range word.Guards {
				if !ps.writes[g] {
					continue
				}
				k := ordWordKey{obj, word}
				st := env.state(k)
				if st.published {
					if w.findings != nil {
						w.emit(Finding{
							Pos:  pos,
							Rule: RuleOrdPubBeforeInit,
							Msg: fmt.Sprintf("%s writes %s.%s after %s was published at line %d",
								fn.Name(), ps.spec.TypeName, g, word.Name, st.pubLine),
							Hint: fmt.Sprintf("finish every write to %s before the %s store that publishes it", g, word.Name),
						})
					}
					st.published = false
					env.word[k] = st
				}
				env.wrote[ordFieldKey{obj, ps.spec, g}] = true
				if isEntry {
					w.sum.params[entry].writes[g] = true
				}
			}
		}
		// 4. Exit effects.
		line := pos.Line
		for _, word := range ps.spec.Words {
			k := ordWordKey{obj, word}
			st := env.state(k)
			if ps.consumes[word] {
				st.consumed, st.published = true, false
			}
			if ps.publishes[word] {
				st.published, st.consumed, st.pubLine = true, false, line
				for _, g := range word.Guards {
					delete(env.wrote, ordFieldKey{obj, ps.spec, g})
				}
			}
			env.word[k] = st
		}
	}
}
