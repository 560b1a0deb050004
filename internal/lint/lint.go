// Package lint implements copiervet, the project-invariant
// static-analysis suite. The repository's core value is that the
// simulator is byte-deterministic and its hot paths are zero-alloc;
// both properties were previously enforced only by runtime goldens.
// This package turns them into machine-checked contracts, in the
// spirit of the paper's own CopierSanitizer (§5.1.2): where that tool
// checks *programs written against* the Copier model, copiervet
// checks *this implementation* against the rules that make the
// reproduction trustworthy.
//
// Six analyzers (the registry in run.go is the authoritative table;
// see each analyzer's file for its rule inventory):
//
//   - detlint    — determinism hygiene in simulator-domain packages:
//     no wall-clock time, no global math/rand, no real goroutines or
//     channel/sync primitives (virtual time flows through sim.Env and
//     sim.Proc), no order-sensitive iteration over maps.
//   - alloclint  — a //copier:noalloc function annotation checked
//     against the compiler's escape analysis (go build -gcflags=-m):
//     any value escaping to the heap inside an annotated function is
//     an error.
//   - cyclelint  — cost-model hygiene: every exported cycles.*
//     constant is referenced by non-test code, and raw integer
//     literals are never added to sim.Time accumulators outside
//     internal/cycles.
//   - unitlint   — dimensional safety for the cost model's typed
//     quantities (units.Bytes, units.Pages, sim.Time): no explicit
//     cross-dimension conversions, no mixed-dimension arithmetic, no
//     laundering through plain ints, outside the blessed crossing
//     points in internal/units and internal/cycles.
//   - lifelint   — interprocedural typestate checking of the protocol
//     objects (acopy.Handle, core.Task, mem pin/unpin pairing,
//     libcopier bindings) against //copier:lifecycle specs declared
//     next to the types: every obligation released exactly once on
//     every path, no use-after-release, ops only from their declared
//     states.
//   - ordlint    — happens-before publication order against
//     //copier:ordered contracts declared next to the types: every
//     write to a guarded field happens before the publish store of its
//     word, every cross-goroutine read is dominated by the matching
//     consume load, and every atomic poll loop is a documented
//     //copier:spin site with an escape. It also rejects every raw
//     sync/atomic call, in any package, so every shared word is a
//     typed atomic and no plain access to it can compile.
//
// Everything is stdlib-only (go/ast, go/parser, go/token, go/types);
// type information comes from export data produced by `go list
// -export`, so the suite runs offline with no module dependencies.
//
// Intentional exceptions are written in-line as
//
//	//copiervet:ignore <rule>[,<rule>...] <reason>
//
// on (or immediately above) the offending line, or
//
//	//copiervet:ignore-file <rule>[,<rule>...] <reason>
//
// anywhere in a file to suppress the rules for that whole file. A
// suppression without a reason, or one that suppresses nothing, is
// itself a finding — exceptions must stay visible and justified.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Rule identifiers. Each finding carries exactly one.
const (
	// detlint rules.
	RuleDetTime     = "det-time"      // wall-clock time from package time
	RuleDetRand     = "det-rand"      // global math/rand or crypto/rand
	RuleDetGo       = "det-go"        // real `go` statement
	RuleDetSync     = "det-sync"      // sync primitives / channels / select
	RuleDetMapOrder = "det-map-order" // order-sensitive iteration over a map

	// alloclint rules.
	RuleNoallocEscape    = "noalloc-escape"    // heap escape inside //copier:noalloc func
	RuleNoallocMisplaced = "noalloc-misplaced" // annotation not attached to a function

	// cyclelint rules.
	RuleCyclesDead    = "cycles-dead"    // exported cycles constant never referenced
	RuleCyclesLiteral = "cycles-literal" // raw integer literal added to sim.Time

	// unitlint rules.
	RuleUnitConv = "unit-conv" // explicit cross-dimension conversion
	RuleUnitMix  = "unit-mix"  // arithmetic mixing two dimensions
	RuleUnitArg  = "unit-arg"  // argument dimension != parameter dimension

	// lifelint rules.
	RuleLifeLeak            = "life-leak"              // obligation live at scope exit
	RuleLifeDoubleRelease   = "life-double-release"    // second release of the same value
	RuleLifeUseAfterRelease = "life-use-after-release" // op on a released value
	RuleLifeState           = "life-state"             // op from a state outside its sources
	RuleLifeSpec            = "life-spec"              // malformed //copier:lifecycle directive

	// ordlint rules.
	RuleOrdPubBeforeInit = "pub-before-init" // write to a guarded field after its word published
	RuleOrdUnorderedRead = "unordered-read"  // guarded read not dominated by a consume load
	RuleOrdRawAtomic     = "raw-atomic"      // call to a package-level sync/atomic function
	RuleOrdSpinUnbounded = "spin-unbounded"  // atomic poll loop without a //copier:spin site
	RuleOrdSpec          = "ord-spec"        // malformed //copier:ordered or //copier:spin directive

	// Suppression hygiene (emitted by the driver, not an analyzer).
	RuleSuppressBare   = "suppress-bare"   // //copiervet:ignore without a reason
	RuleSuppressUnused = "suppress-unused" // suppression that matched no finding
)

// AllRules (run.go) lists every rule identifier, derived from the
// analyzer registry so it can never drift from what actually runs.

// KnownRule reports whether id names a rule copiervet implements.
func KnownRule(id string) bool {
	for _, r := range AllRules {
		if r == id {
			return true
		}
	}
	return false
}

// Finding is one reported violation.
type Finding struct {
	Pos  token.Position // file:line:col (file path as the loader saw it)
	Rule string
	Msg  string
	Hint string // one-line fix hint, shown after the message
}

// String formats the finding as file:line:col: rule: msg (hint).
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
	if f.Hint != "" {
		s += " (fix: " + f.Hint + ")"
	}
	return s
}

// SortFindings orders findings by file, line, column, then rule, so
// reports (and golden files) are stable.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// CountByRule tallies findings per rule.
func CountByRule(fs []Finding) map[string]int {
	m := make(map[string]int)
	for _, f := range fs {
		m[f.Rule]++
	}
	return m
}

// FormatCounts renders per-rule counts in AllRules order, e.g.
// "det-time=2 noalloc-escape=1".
func FormatCounts(counts map[string]int) string {
	s := ""
	for _, r := range AllRules {
		if n := counts[r]; n > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s=%d", r, n)
		}
	}
	return s
}
