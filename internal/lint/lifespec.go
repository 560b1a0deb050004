package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Lifecycle specs are declared next to the types they govern with
// //copier:lifecycle directives (no space after //, like go:build, so
// gofmt leaves them alone). A spec is a finite state machine:
//
//	//copier:lifecycle type Handle states=live,done,released accept=released dead=released
//	//copier:lifecycle new Copier.AMemcpy -> live
//	//copier:lifecycle lit -> built
//	//copier:lifecycle op Wait live,done -> done
//	//copier:lifecycle op Release done -> released
//	//copier:lifecycle test Done done
//
// `type` opens a spec; the clauses that follow in the same file attach
// to it. `new` names a constructor (Func or Recv.Method) whose result
// is born in the given state; `lit` makes composite literals of the
// type a birth point. `op` restricts a method to source states and
// gives the target ("same" keeps the state); an op whose target is a
// dead state is a release. `test` lets a boolean observer narrow the
// state when its result is branched on (if h.Done() { ... }).
//
// Anonymous counted obligations (pin/unpin pairing) use:
//
//	//copier:lifecycle pair pin open=AddrSpace.Pin close=AddrSpace.Unpin
//	//copier:lifecycle transfer pin pinRec
//	//copier:lifecycle holds pin
//
// `pair` declares the open/close calls; every successful open creates
// an obligation the path must discharge. `transfer` (declared in any
// package) blesses building the named type as a discharge — the
// obligation now lives in that record. `holds`, written on a function
// declaration, marks it as intentionally returning with open
// obligations; its callers inherit them.
//
// The package that declares a lifecycle is exempt from it: the
// implementation legitimately takes its own objects through
// half-states. Malformed or unresolvable directives are findings
// (life-spec), not silent no-ops.

// lifeOp is one `op` clause: a transition of the state machine.
type lifeOp struct {
	name string
	from uint64 // allowed source states (bit i = spec.states[i])
	to   int    // target state index; -1 = unchanged ("same")
}

// lifeSpec is one declared lifecycle.
type lifeSpec struct {
	name    string // display name ("acopy.Handle", "pin")
	pkgPath string // declaring package (exempt from this spec)
	pos     token.Position

	// Typed lifecycles.
	typeKey  string // "pkg/path.Name" of the governed type; "" for pairs
	states   []string
	accept   uint64
	dead     uint64
	litState int                // composite-literal birth state; -1 = untracked
	news     map[string]int     // func key -> birth state index
	ops      map[string]*lifeOp // method name on the governed type -> op
	argOps   map[string]*lifeOp // func key -> op on its first governed-type argument
	tests    map[string]uint64  // method name -> states implied by a true result

	// Pair lifecycles.
	openKey  string
	closeKey string
}

// allStates is the mask of every declared state.
func (s *lifeSpec) allStates() uint64 { return 1<<uint(len(s.states)) - 1 }

// stateNames renders a state mask as "a|b" in declaration order.
func (s *lifeSpec) stateNames(mask uint64) string {
	var parts []string
	for i, name := range s.states {
		if mask&(1<<uint(i)) != 0 {
			parts = append(parts, name)
		}
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, "|")
}

// releaseOps lists the ops whose target is a dead state, for hints.
func (s *lifeSpec) releaseOps() string {
	var parts []string
	for _, op := range s.opList() {
		if op.to >= 0 && s.dead&(1<<uint(op.to)) != 0 {
			parts = append(parts, op.name)
		}
	}
	if len(parts) == 0 {
		return "a release op"
	}
	return strings.Join(parts, "/")
}

// opList returns ops sorted by name (maps must not leak order).
func (s *lifeSpec) opList() []*lifeOp {
	var names []string
	for n := range s.ops {
		names = append(names, n)
	}
	slices.Sort(names)
	out := make([]*lifeOp, 0, len(names))
	for _, n := range names {
		out = append(out, s.ops[n])
	}
	return out
}

// lifeSpecs is every lifecycle collected from the loaded packages,
// with combined lookup tables for call-site dispatch.
type lifeSpecs struct {
	list      []*lifeSpec            // declaration order
	byType    map[string]*lifeSpec   // type key -> typed spec
	pairs     map[string]*lifeSpec   // pair name -> pair spec
	newsBy    map[string]*lifeSpec   // func key -> spec it constructs
	argOpsBy  map[string]*lifeSpec   // func key -> spec with an argOp for it
	openBy    map[string]*lifeSpec   // func key -> pair spec it opens
	closeBy   map[string]*lifeSpec   // func key -> pair spec it closes
	holds     map[string][]string    // func key -> pair names held at return by design
	transfers map[string][]*lifeSpec // type key -> pair specs discharged by building it
}

// collectLifeSpecs parses every //copier:lifecycle directive in the
// loaded packages. Malformed directives become life-spec findings.
func collectLifeSpecs(pkgs []*Package) (*lifeSpecs, []Finding) {
	ls := &lifeSpecs{
		byType:    make(map[string]*lifeSpec),
		pairs:     make(map[string]*lifeSpec),
		newsBy:    make(map[string]*lifeSpec),
		argOpsBy:  make(map[string]*lifeSpec),
		openBy:    make(map[string]*lifeSpec),
		closeBy:   make(map[string]*lifeSpec),
		holds:     make(map[string][]string),
		transfers: make(map[string][]*lifeSpec),
	}
	var out []Finding
	// holds/transfer reference pair names that may be declared in
	// another package; resolve them after all packages parsed.
	type pendingRef struct {
		kind    string // "holds" or "transfer"
		pair    string
		funcKey string // holds
		typeKey string // transfer
		pos     token.Position
	}
	var pending []pendingRef

	bad := func(p *Package, pos token.Pos, format string, args ...any) {
		out = append(out, Finding{
			Pos:  p.Position(pos),
			Rule: RuleLifeSpec,
			Msg:  "malformed //copier:lifecycle directive: " + fmt.Sprintf(format, args...),
			Hint: "see internal/lint/lifespec.go for the clause grammar",
		})
	}

	for _, p := range pkgs {
		for _, f := range p.Files {
			// Map doc comment groups to their function, for `holds`.
			docFunc := make(map[*ast.CommentGroup]*ast.FuncDecl)
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
					docFunc[fd.Doc] = fd
				}
			}
			var cur *lifeSpec // last `type` clause in this file
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//copier:lifecycle")
					if !ok {
						continue
					}
					fields := strings.Fields(text)
					if len(fields) == 0 {
						bad(p, c.Pos(), "empty clause")
						continue
					}
					switch fields[0] {
					case "type":
						spec := parseLifeType(p, c, fields[1:], bad)
						cur = spec
						if spec == nil {
							continue
						}
						if prev, dup := ls.byType[spec.typeKey]; dup {
							bad(p, c.Pos(), "lifecycle for %s already declared at %s", spec.name, prev.pos)
							cur = nil
							continue
						}
						ls.byType[spec.typeKey] = spec
						ls.list = append(ls.list, spec)
					case "pair":
						cur = nil
						spec := parseLifePair(p, c, fields[1:], bad)
						if spec == nil {
							continue
						}
						if prev, dup := ls.pairs[spec.name]; dup {
							bad(p, c.Pos(), "pair %s already declared at %s", spec.name, prev.pos)
							continue
						}
						ls.pairs[spec.name] = spec
						ls.list = append(ls.list, spec)
						ls.openBy[spec.openKey] = spec
						ls.closeBy[spec.closeKey] = spec
					case "lit", "new", "op", "test":
						if cur == nil {
							bad(p, c.Pos(), "%s clause with no preceding type clause in this file", fields[0])
							continue
						}
						parseLifeClause(p, c, cur, ls, fields, bad)
					case "transfer":
						if len(fields) != 3 {
							bad(p, c.Pos(), "want: transfer <pair> <Type>")
							continue
						}
						tk, ok := resolveLifeType(p, fields[2])
						if !ok {
							bad(p, c.Pos(), "unknown type %s in package %s", fields[2], p.Path)
							continue
						}
						pending = append(pending, pendingRef{kind: "transfer", pair: fields[1], typeKey: tk, pos: p.Position(c.Pos())})
					case "holds":
						if len(fields) != 2 {
							bad(p, c.Pos(), "want: holds <pair>")
							continue
						}
						fd := docFunc[cg]
						if fd == nil {
							bad(p, c.Pos(), "holds clause must sit in a function's doc comment")
							continue
						}
						key := declFuncKey(p, fd)
						if key == "" {
							bad(p, c.Pos(), "cannot resolve function %s", fd.Name.Name)
							continue
						}
						pending = append(pending, pendingRef{kind: "holds", pair: fields[1], funcKey: key, pos: p.Position(c.Pos())})
					default:
						bad(p, c.Pos(), "unknown clause %q", fields[0])
					}
				}
			}
		}
	}

	for _, ref := range pending {
		spec := ls.pairs[ref.pair]
		if spec == nil {
			out = append(out, Finding{
				Pos:  ref.pos,
				Rule: RuleLifeSpec,
				Msg:  fmt.Sprintf("malformed //copier:lifecycle directive: %s references unknown pair %q", ref.kind, ref.pair),
				Hint: "declare the pair with //copier:lifecycle pair <name> open=... close=...",
			})
			continue
		}
		switch ref.kind {
		case "holds":
			ls.holds[ref.funcKey] = append(ls.holds[ref.funcKey], ref.pair)
		case "transfer":
			ls.transfers[ref.typeKey] = append(ls.transfers[ref.typeKey], spec)
		}
	}
	return ls, out
}

// parseLifeType handles `type <Name> states=... accept=... [dead=...]`.
func parseLifeType(p *Package, c *ast.Comment, fields []string, bad func(*Package, token.Pos, string, ...any)) *lifeSpec {
	if len(fields) < 3 {
		bad(p, c.Pos(), "want: type <Name> states=<s,...> accept=<s,...> [dead=<s,...>]")
		return nil
	}
	tk, ok := resolveLifeType(p, fields[0])
	if !ok {
		bad(p, c.Pos(), "unknown type %s in package %s", fields[0], p.Path)
		return nil
	}
	spec := &lifeSpec{
		name:     shortPkg(p.Path) + "." + fields[0],
		pkgPath:  p.Path,
		pos:      p.Position(c.Pos()),
		typeKey:  tk,
		litState: -1,
		news:     make(map[string]int),
		ops:      make(map[string]*lifeOp),
		argOps:   make(map[string]*lifeOp),
		tests:    make(map[string]uint64),
	}
	var acceptStr, deadStr string
	for _, f := range fields[1:] {
		switch {
		case strings.HasPrefix(f, "states="):
			spec.states = strings.Split(f[len("states="):], ",")
		case strings.HasPrefix(f, "accept="):
			acceptStr = f[len("accept="):]
		case strings.HasPrefix(f, "dead="):
			deadStr = f[len("dead="):]
		default:
			bad(p, c.Pos(), "unknown key %q in type clause", f)
			return nil
		}
	}
	if len(spec.states) == 0 || acceptStr == "" {
		bad(p, c.Pos(), "type clause needs states= and accept=")
		return nil
	}
	if len(spec.states) > 64 {
		bad(p, c.Pos(), "too many states (max 64)")
		return nil
	}
	var err string
	if spec.accept, err = spec.parseStates(acceptStr); err != "" {
		bad(p, c.Pos(), "accept=: %s", err)
		return nil
	}
	if deadStr != "" {
		if spec.dead, err = spec.parseStates(deadStr); err != "" {
			bad(p, c.Pos(), "dead=: %s", err)
			return nil
		}
	}
	return spec
}

// parseLifePair handles `pair <name> open=<F> close=<F>`.
func parseLifePair(p *Package, c *ast.Comment, fields []string, bad func(*Package, token.Pos, string, ...any)) *lifeSpec {
	if len(fields) != 3 || !strings.HasPrefix(fields[1], "open=") || !strings.HasPrefix(fields[2], "close=") {
		bad(p, c.Pos(), "want: pair <name> open=<Func> close=<Func>")
		return nil
	}
	openKey, ok1 := resolveLifeFunc(p, fields[1][len("open="):])
	closeKey, ok2 := resolveLifeFunc(p, fields[2][len("close="):])
	if !ok1 || !ok2 {
		bad(p, c.Pos(), "cannot resolve open/close function in package %s", p.Path)
		return nil
	}
	return &lifeSpec{
		name:     fields[0],
		pkgPath:  p.Path,
		pos:      p.Position(c.Pos()),
		states:   []string{"held"},
		openKey:  openKey,
		closeKey: closeKey,
	}
}

// parseLifeClause handles the clauses that attach to a type spec.
func parseLifeClause(p *Package, c *ast.Comment, spec *lifeSpec, ls *lifeSpecs, fields []string, bad func(*Package, token.Pos, string, ...any)) {
	switch fields[0] {
	case "lit": // lit -> <state>
		if len(fields) != 3 || fields[1] != "->" {
			bad(p, c.Pos(), "want: lit -> <state>")
			return
		}
		i, ok := spec.stateIndex(fields[2])
		if !ok {
			bad(p, c.Pos(), "unknown state %q", fields[2])
			return
		}
		spec.litState = i
	case "new": // new <F> -> <state>
		if len(fields) != 4 || fields[2] != "->" {
			bad(p, c.Pos(), "want: new <Func> -> <state>")
			return
		}
		key, ok := resolveLifeFunc(p, fields[1])
		if !ok {
			bad(p, c.Pos(), "cannot resolve %s in package %s", fields[1], p.Path)
			return
		}
		i, ok := spec.stateIndex(fields[3])
		if !ok {
			bad(p, c.Pos(), "unknown state %q", fields[3])
			return
		}
		spec.news[key] = i
		ls.newsBy[key] = spec
	case "op": // op <M> <s,...> -> <state|same>
		if len(fields) != 5 || fields[3] != "->" {
			bad(p, c.Pos(), "want: op <Method> <from,...> -> <state|same>")
			return
		}
		from, err := spec.parseStates(fields[2])
		if err != "" {
			bad(p, c.Pos(), "op %s: %s", fields[1], err)
			return
		}
		to := -1
		if fields[4] != "same" {
			i, ok := spec.stateIndex(fields[4])
			if !ok {
				bad(p, c.Pos(), "unknown state %q", fields[4])
				return
			}
			to = i
		}
		if strings.Contains(fields[1], ".") {
			// Qualified name: a function taking the governed type as an
			// argument (e.g. Client.SubmitCopy).
			key, ok := resolveLifeFunc(p, fields[1])
			if !ok {
				bad(p, c.Pos(), "cannot resolve %s in package %s", fields[1], p.Path)
				return
			}
			spec.argOps[key] = &lifeOp{name: fields[1], from: from, to: to}
			ls.argOpsBy[key] = spec
			return
		}
		if !spec.hasMethod(p, fields[1]) {
			bad(p, c.Pos(), "%s has no method %s", spec.name, fields[1])
			return
		}
		spec.ops[fields[1]] = &lifeOp{name: fields[1], from: from, to: to}
	case "test": // test <M> <s,...>
		if len(fields) != 3 {
			bad(p, c.Pos(), "want: test <Method> <states-if-true>")
			return
		}
		if !spec.hasMethod(p, fields[1]) {
			bad(p, c.Pos(), "%s has no method %s", spec.name, fields[1])
			return
		}
		mask, err := spec.parseStates(fields[2])
		if err != "" {
			bad(p, c.Pos(), "test %s: %s", fields[1], err)
			return
		}
		spec.tests[fields[1]] = mask
	}
}

// parseStates resolves "a,b,c" to a mask; "" on success.
func (s *lifeSpec) parseStates(list string) (uint64, string) {
	var mask uint64
	for _, name := range strings.Split(list, ",") {
		i, ok := s.stateIndex(name)
		if !ok {
			return 0, fmt.Sprintf("unknown state %q", name)
		}
		mask |= 1 << uint(i)
	}
	return mask, ""
}

func (s *lifeSpec) stateIndex(name string) (int, bool) {
	for i, st := range s.states {
		if st == name {
			return i, true
		}
	}
	return 0, false
}

// hasMethod reports whether the governed type declares method name
// (spec and type live in the same package, so the scope has it).
func (s *lifeSpec) hasMethod(p *Package, name string) bool {
	if p.Types == nil {
		return true // type errors: stay quiet
	}
	tn, _ := p.Types.Scope().Lookup(s.typeKey[strings.LastIndexByte(s.typeKey, '.')+1:]).(*types.TypeName)
	if tn == nil {
		return false
	}
	named, _ := tn.Type().(*types.Named)
	if named == nil {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// resolveLifeType resolves a bare type name in p to its key.
func resolveLifeType(p *Package, name string) (string, bool) {
	if p.Types == nil {
		return "", false
	}
	if _, ok := p.Types.Scope().Lookup(name).(*types.TypeName); !ok {
		return "", false
	}
	return p.Path + "." + name, true
}

// resolveLifeFunc resolves "Func" or "Recv.Method" in p to a func key.
func resolveLifeFunc(p *Package, name string) (string, bool) {
	if p.Types == nil {
		return "", false
	}
	scope := p.Types.Scope()
	if i := strings.IndexByte(name, '.'); i >= 0 {
		tn, _ := scope.Lookup(name[:i]).(*types.TypeName)
		if tn == nil {
			return "", false
		}
		named, _ := tn.Type().(*types.Named)
		if named == nil {
			return "", false
		}
		for j := 0; j < named.NumMethods(); j++ {
			if named.Method(j).Name() == name[i+1:] {
				return p.Path + "." + name, true
			}
		}
		return "", false
	}
	if _, ok := scope.Lookup(name).(*types.Func); !ok {
		return "", false
	}
	return p.Path + "." + name, true
}

// lifeFuncKey normalizes a function object to the key form the spec
// tables use: pkg/path.Func or pkg/path.Recv.Method (receiver pointers
// stripped). Keys are strings so call sites in separately type-checked
// packages still match.
func lifeFuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, _ := t.(*types.Named)
		if named == nil || named.Obj() == nil || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// declFuncKey is lifeFuncKey for a parsed declaration.
func declFuncKey(p *Package, fd *ast.FuncDecl) string {
	fn, _ := p.Info.Defs[fd.Name].(*types.Func)
	return lifeFuncKey(fn)
}

// lifeTypeKey normalizes a value type to the key form: the named type
// behind at most one pointer, as pkg/path.Name.
func lifeTypeKey(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	if named == nil || named.Obj() == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// shortPkg renders the last element of an import path.
func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
