package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// ordspec parses the //copier:ordered annotation grammar: the
// declared happens-before publication contracts ordlint verifies.
// A spec is written next to the governed struct type, one clause per
// line, exactly like //copier:lifecycle blocks:
//
//	//copier:ordered type ring
//	//copier:ordered word head
//	//copier:ordered word tail guards=slots
//
// A `type` clause opens the spec for a named struct type of the same
// package. Each `word` clause declares one synchronization word — a
// field of a typed sync/atomic wrapper (atomic.Uint32, atomic.Uint64,
// atomic.Pointer, ...) — whose atomic stores are the protocol's
// publish points (release) and whose atomic loads are its consume
// points (acquire). The optional guards= list names the sibling
// fields the word protects: every write to a guarded field must
// happen before the word's publish store, and every cross-goroutine
// read must be dominated by a consume load of the word.
//
// Spin sites are annotated separately, on (or on the line above) the
// polling `for` statement:
//
//	//copier:spin <why the spin is bounded / how it parks>
//
// Malformed clauses are ord-spec findings; a malformed spec never
// silently weakens the analysis.

const (
	orderedMarker = "//copier:ordered"
	spinMarker    = "//copier:spin"
)

// ordWord is one declared synchronization word of a governed type.
type ordWord struct {
	Spec   *ordSpec
	Name   string   // field name of the typed atomic wrapper
	Guards []string // sibling fields published by this word's stores
	Line   int      // declaration line, for traces
}

// ordSpec is the ordering contract of one governed struct type.
type ordSpec struct {
	TypeName string
	PkgPath  string
	Words    []*ordWord
	byWord   map[string]*ordWord
	guardOf  map[string][]*ordWord
}

// word returns the declared word for field name, or nil.
func (s *ordSpec) word(field string) *ordWord { return s.byWord[field] }

// guardedBy returns the words guarding field name (nil when the field
// is not guarded).
func (s *ordSpec) guardedBy(field string) []*ordWord { return s.guardOf[field] }

// ordSpecs is the parse result over the whole load: every governed
// type's spec plus the per-file spin annotations.
type ordSpecs struct {
	byType map[string]*ordSpec
	// spin maps filename -> line -> reason for every well-formed
	// //copier:spin marker. A marker covers its own line and the line
	// below.
	spin map[string]map[int]string
}

// ordClause is the purely syntactic shape of one //copier:ordered
// directive, before any type resolution. parseOrderedText is total
// over arbitrary comment text (FuzzOrdSpec holds it to that).
type ordClause struct {
	Kind   string // "type" | "word"
	Name   string // type name or word field name
	Guards []string
}

// parseOrderedText syntactically parses one comment line as a
// //copier:ordered clause. ok reports whether the comment is an
// ordered directive at all; a directive with problems is returned
// with ok=true and must not be used.
func parseOrderedText(text string) (c ordClause, problems []string, ok bool) {
	rest, isDir := strings.CutPrefix(strings.TrimSpace(text), orderedMarker)
	if !isDir || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return ordClause{}, nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return ordClause{}, []string{"empty //copier:ordered directive (want type <Name> or word <field> [guards=f1,f2])"}, true
	}
	c.Kind = fields[0]
	switch c.Kind {
	case "type":
		if len(fields) < 2 {
			problems = append(problems, "type clause needs a type name")
			break
		}
		c.Name = fields[1]
		if len(fields) > 2 {
			problems = append(problems, fmt.Sprintf("unexpected tokens after type name: %q", strings.Join(fields[2:], " ")))
		}
	case "word":
		if len(fields) < 2 {
			problems = append(problems, "word clause needs a field name")
			break
		}
		c.Name = fields[1]
		for _, kv := range fields[2:] {
			key, val, found := strings.Cut(kv, "=")
			if !found || key != "guards" {
				problems = append(problems, fmt.Sprintf("unknown word attribute %q (only guards=f1,f2 is defined)", kv))
				continue
			}
			for _, g := range strings.Split(val, ",") {
				g = strings.TrimSpace(g)
				if g == "" {
					problems = append(problems, "empty field name in guards= list")
					continue
				}
				for _, seen := range c.Guards {
					if seen == g {
						problems = append(problems, fmt.Sprintf("duplicate guard %q", g))
					}
				}
				c.Guards = append(c.Guards, g)
			}
			if len(c.Guards) == 0 && len(problems) == 0 {
				problems = append(problems, "guards= list is empty")
			}
		}
	default:
		problems = append(problems, fmt.Sprintf("unknown clause %q (want type or word)", c.Kind))
	}
	return c, problems, true
}

// parseSpinText parses a //copier:spin marker. ok reports whether the
// comment is a spin marker; reason is its (possibly empty) rationale.
func parseSpinText(text string) (reason string, ok bool) {
	rest, isDir := strings.CutPrefix(strings.TrimSpace(text), spinMarker)
	if !isDir || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// collectOrdSpecs walks every loaded file once, parsing and resolving
// //copier:ordered blocks and //copier:spin markers. Grammar and
// resolution errors come back as ord-spec findings.
func collectOrdSpecs(pkgs []*Package) (*ordSpecs, []Finding) {
	specs := &ordSpecs{
		byType: make(map[string]*ordSpec),
		spin:   make(map[string]map[int]string),
	}
	var out []Finding
	for _, p := range pkgs {
		for _, f := range p.Files {
			var cur *ordSpec // last type clause in this file
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := p.Position(c.Pos())
					bad := func(format string, args ...any) {
						out = append(out, Finding{
							Pos:  pos,
							Rule: RuleOrdSpec,
							Msg:  fmt.Sprintf(format, args...),
							Hint: "grammar: //copier:ordered type <Name> | word <field> [guards=f1,f2]; //copier:spin <reason>",
						})
					}
					if reason, isSpin := parseSpinText(c.Text); isSpin {
						if reason == "" {
							bad("//copier:spin needs a reason (why is the spin bounded, how does it park)")
							continue
						}
						if specs.spin[pos.Filename] == nil {
							specs.spin[pos.Filename] = make(map[int]string)
						}
						specs.spin[pos.Filename][pos.Line] = reason
						continue
					}
					cl, problems, isOrd := parseOrderedText(c.Text)
					if !isOrd {
						continue
					}
					if len(problems) > 0 {
						for _, msg := range problems {
							bad("%s", msg)
						}
						continue
					}
					switch cl.Kind {
					case "type":
						key, st := resolveOrdType(p, cl.Name)
						if st == nil {
							bad("unknown struct type %q in package %s", cl.Name, p.Path)
							cur = nil
							continue
						}
						if _, dup := specs.byType[key]; dup {
							bad("duplicate //copier:ordered spec for %s", cl.Name)
							cur = nil
							continue
						}
						cur = &ordSpec{
							TypeName: cl.Name,
							PkgPath:  p.Path,
							byWord:   make(map[string]*ordWord),
							guardOf:  make(map[string][]*ordWord),
						}
						specs.byType[key] = cur
					case "word":
						if cur == nil {
							bad("word clause with no preceding //copier:ordered type clause in this file")
							continue
						}
						_, st := resolveOrdType(p, cur.TypeName)
						fv := structField(st, cl.Name)
						if fv == nil {
							bad("%s has no field %q", cur.TypeName, cl.Name)
							continue
						}
						if !isAtomicWrapper(fv.Type()) {
							bad("word %s.%s is not a typed sync/atomic wrapper (%s)", cur.TypeName, cl.Name, fv.Type())
							continue
						}
						if cur.byWord[cl.Name] != nil {
							bad("duplicate word clause for %s.%s", cur.TypeName, cl.Name)
							continue
						}
						w := &ordWord{Spec: cur, Name: cl.Name, Line: pos.Line}
						okGuards := true
						for _, g := range cl.Guards {
							if g == cl.Name {
								bad("word %s.%s cannot guard itself", cur.TypeName, cl.Name)
								okGuards = false
								continue
							}
							if structField(st, g) == nil {
								bad("guard %q is not a field of %s", g, cur.TypeName)
								okGuards = false
								continue
							}
							w.Guards = append(w.Guards, g)
						}
						if !okGuards {
							continue
						}
						cur.Words = append(cur.Words, w)
						cur.byWord[cl.Name] = w
						for _, g := range w.Guards {
							cur.guardOf[g] = append(cur.guardOf[g], w)
						}
					}
				}
			}
		}
	}
	// Drop specs that ended up with no usable words: nothing to check,
	// and the grammar errors above already explain why.
	for key, s := range specs.byType {
		if len(s.Words) == 0 {
			delete(specs.byType, key)
		}
	}
	return specs, out
}

// resolveOrdType resolves a bare type name in p to its identity key
// and underlying struct type. Returns a nil struct when the name does
// not resolve (including when p has no type information).
func resolveOrdType(p *Package, name string) (string, *types.Struct) {
	if p.Types == nil {
		return "", nil
	}
	tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return "", nil
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return "", nil
	}
	return p.Path + "." + name, st
}

// structField returns the named field of st, or nil.
func structField(st *types.Struct, name string) *types.Var {
	if st == nil {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}

// isAtomicWrapper reports whether t is (an instantiation of) one of
// the sync/atomic wrapper types — the only legal word types: their
// every access is atomic by construction.
func isAtomicWrapper(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync/atomic"
}

// spinReason returns the //copier:spin reason covering line in file
// (the marker's own line or the line above), and whether one exists.
func (s *ordSpecs) spinReason(filename string, line int) (string, bool) {
	m := s.spin[filename]
	if m == nil {
		return "", false
	}
	if r, ok := m[line]; ok {
		return r, true
	}
	r, ok := m[line-1]
	return r, ok
}

// docSpin reports whether a function's doc comment carries a
// //copier:spin marker (covers every loop in the function).
func docSpin(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if r, ok := parseSpinText(c.Text); ok {
			return r, true
		}
	}
	return "", false
}
