package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// atomiclint guards the real-concurrency fast paths. The acopy
// library and the ring/observability structures it shares with the
// simulator run under actual goroutines, and their shared counters
// are accessed through sync/atomic. The invariant is all-or-nothing:
// once any access to a struct field goes through sync/atomic, every
// access must — a single plain load can read a torn or stale value,
// and a single plain store can lose a concurrent atomic update. The
// race detector only catches the schedules it happens to see; this
// check is static and total over the declared field.
//
//   - atomic-plain: a plain (non-atomic) read or write of a struct
//     field that is elsewhere passed by address to a sync/atomic
//     function, inside the configured real-concurrency packages.
//
// Two escapes are recognized. Fields of the atomic.Int64-style
// wrapper types are safe by construction (the type system already
// forces atomic access) and are never flagged. Genuinely
// single-threaded spans — constructors before the first goroutine
// starts, teardown after the last join — are documented in-line:
//
//	//copier:serialized <why no other goroutine can touch this>
//
// on the access's line, the line above, or the function's doc comment
// (which exempts the whole function). Composite literals are not
// flagged: they initialize a value no other goroutine can reach yet.

// AtomicConfig parameterizes atomiclint so tests can point it at
// snippet packages.
type AtomicConfig struct {
	// Packages are the import paths (exact or prefix) whose code runs
	// under real goroutines and is subject to the check.
	Packages []string
}

// DefaultAtomicConfig matches this repository: the native background
// copier, the rings it shares with the core service, the
// observability counters both sides bump, and the simulator now that
// its shard runtime executes lookahead windows on real worker
// threads.
var DefaultAtomicConfig = AtomicConfig{Packages: []string{
	"copier/internal/acopy",
	"copier/internal/core",
	"copier/internal/obs",
	"copier/internal/sim",
}}

const serializedMarker = "//copier:serialized"

// AtomicLint runs the two-pass analysis: index every field passed by
// address to a sync/atomic function, then flag plain accesses to
// those fields.
func AtomicLint(pkgs []*Package, cfg AtomicConfig) []Finding {
	var targets []*Package
	for _, p := range pkgs {
		for _, t := range cfg.Packages {
			if p.Path == t || strings.HasPrefix(p.Path, t+"/") {
				targets = append(targets, p)
				break
			}
		}
	}

	// Pass 1: which fields are atomic, and which selector nodes are
	// the blessed &f arguments themselves.
	atomicFields := make(map[string]bool)       // field key -> seen atomic access
	blessed := make(map[*ast.SelectorExpr]bool) // &f arguments to sync/atomic calls
	for _, p := range targets {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
				if !ok || addr.Op != token.AND {
					return true
				}
				fsel, ok := ast.Unparen(addr.X).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if key, _, ok := fieldKey(p, fsel); ok {
					atomicFields[key] = true
					blessed[fsel] = true
				}
				return true
			})
		}
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Pass 2: plain accesses to those fields.
	var out []Finding
	for _, p := range targets {
		for _, f := range p.Files {
			serialized := serializedLines(p, f)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if docSerialized(fd.Doc) {
					continue // whole function documented as serialized
				}
				writes := make(map[*ast.SelectorExpr]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch st := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range st.Lhs {
							if s, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								writes[s] = true
							}
						}
					case *ast.IncDecStmt:
						if s, ok := ast.Unparen(st.X).(*ast.SelectorExpr); ok {
							writes[s] = true
						}
					}
					return true
				})
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					fsel, ok := n.(*ast.SelectorExpr)
					if !ok || blessed[fsel] {
						return true
					}
					key, name, ok := fieldKey(p, fsel)
					if !ok || !atomicFields[key] {
						return true
					}
					pos := p.Position(fsel.Pos())
					if serialized[pos.Line] || serialized[pos.Line-1] {
						return true
					}
					kind := "read"
					if writes[fsel] {
						kind = "write"
					}
					out = append(out, Finding{
						Pos:  pos,
						Rule: RuleAtomicPlain,
						Msg:  fmt.Sprintf("plain %s of %s, elsewhere accessed via sync/atomic", kind, name),
						Hint: "use the matching atomic.Load/Store/Add, or document the span with " + serializedMarker + " <reason>",
					})
					return true
				})
			}
		}
	}
	return out
}

// fieldKey resolves a selector to the struct field it denotes and
// returns a stable identity key (package path + receiver type + field
// name, so cross-package accesses to the same field agree) plus a
// display name.
func fieldKey(p *Package, sel *ast.SelectorExpr) (key, name string, ok bool) {
	v, recv, ok := selField(p, sel)
	if !ok {
		return "", "", false
	}
	recvName := recv.String()
	if named, isNamed := recv.(*types.Named); isNamed && named.Obj() != nil {
		recvName = named.Obj().Name()
	}
	return v.Pkg().Path() + "." + recvName + "." + v.Name(), recvName + "." + v.Name(), true
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

// docSerialized reports whether a doc comment carries the
// //copier:serialized marker. (CommentGroup.Text strips
// directive-style comments, so scan the raw list.)
func docSerialized(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), serializedMarker) {
			return true
		}
	}
	return false
}

// serializedLines collects the line numbers carrying a
// //copier:serialized marker in f. A marker covers its own line and
// the line below (checked by the caller).
func serializedLines(p *Package, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), serializedMarker) {
				lines[p.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}
