package lint

import (
	"strings"
	"time"
)

// DomainDirs are the module-relative package prefixes subject to the
// determinism and cost-model rules — everything that executes inside
// (or feeds) the discrete-event simulation. internal/acopy and the
// commands are real-time by design and exempt; internal/lint is the
// checker itself.
var DomainDirs = []string{
	"internal/sim",
	"internal/core",
	"internal/hw",
	"internal/kernel",
	"internal/mem",
	"internal/bench",
	"internal/fault",
	"internal/obs",
	"internal/copiergen",
	"internal/cycles",
	"internal/libcopier",
	"internal/baseline",
	"internal/apps",
	"internal/model",
	"internal/sanitizer",
	"internal/topo",
}

// Options configures a copiervet run.
type Options struct {
	// Dir is where package patterns resolve (any dir in the module).
	Dir string
	// Patterns are go package patterns; default ["./..."].
	Patterns []string
	// Rules restricts the run to these rule IDs (nil = all).
	Rules []string
	// Cycles configures cyclelint; zero value selects the defaults.
	Cycles CycleConfig
	// Units configures unitlint; zero value selects the defaults.
	Units UnitConfig
	// DomainAll treats every target package as simulator-domain
	// (used by tests over snippet packages).
	DomainAll bool
}

// runInput is the shared state every analyzer run function receives:
// the resolved options and the one package load of the run. The flow
// analyzers record how their fixpoints ended in life and ord.
type runInput struct {
	opts      Options
	pkgs      []*Package
	ld        *Loader
	life, ord flowStats
}

// Analyzer is one registered copiervet analyzer. This table is the
// single source of truth the driver derives everything from — the
// dispatch loop, the -v phase timings, the -list inventory, AllRules,
// and the -json schema docs. Adding an analyzer is one entry here
// (plus its rule constants), not six parallel edits.
type Analyzer struct {
	Name  string
	Doc   string   // one-line description, shown by copiervet -list
	Rules []string // every rule ID the analyzer can emit
	run   func(in *runInput) ([]Finding, error)
}

// Analyzers lists every analyzer in execution (and -v timing) order.
// alloclint runs last: it is the only one that shells out to the go
// tool instead of reusing the shared load.
var Analyzers = []Analyzer{
	{
		Name:  "detlint",
		Doc:   "determinism hygiene in simulator-domain packages",
		Rules: []string{RuleDetTime, RuleDetRand, RuleDetGo, RuleDetSync, RuleDetMapOrder},
		run: func(in *runInput) ([]Finding, error) {
			var out []Finding
			for _, p := range in.pkgs {
				if in.opts.DomainAll || inDomain(in.ld.ModulePath, p.Path) {
					out = append(out, Detlint(p)...)
				}
			}
			return out, nil
		},
	},
	{
		Name:  "cyclelint",
		Doc:   "cost-model hygiene: named cycles consts, no dead ones",
		Rules: []string{RuleCyclesDead, RuleCyclesLiteral},
		run: func(in *runInput) ([]Finding, error) {
			var out []Finding
			for _, p := range in.pkgs {
				if in.opts.DomainAll || inDomain(in.ld.ModulePath, p.Path) {
					out = append(out, CycleLiterals(p, in.opts.Cycles)...)
				}
			}
			return append(out, DeadCycleConsts(in.pkgs, in.opts.Cycles)...), nil
		},
	},
	{
		Name:  "unitlint",
		Doc:   "dimensional safety for Bytes/Pages/Time quantities",
		Rules: []string{RuleUnitConv, RuleUnitMix, RuleUnitArg},
		run: func(in *runInput) ([]Finding, error) {
			return UnitLint(in.pkgs, in.opts.Units), nil
		},
	},
	{
		Name:  "lifelint",
		Doc:   "lifecycle typestate of protocol objects (//copier:lifecycle)",
		Rules: []string{RuleLifeLeak, RuleLifeDoubleRelease, RuleLifeUseAfterRelease, RuleLifeState, RuleLifeSpec},
		run: func(in *runInput) ([]Finding, error) {
			return lifeLint(in.pkgs, &in.life), nil
		},
	},
	{
		Name:  "ordlint",
		Doc:   "happens-before publication order (//copier:ordered, //copier:spin), typed atomics only",
		Rules: []string{RuleOrdPubBeforeInit, RuleOrdUnorderedRead, RuleOrdRawAtomic, RuleOrdSpinUnbounded, RuleOrdSpec},
		run: func(in *runInput) ([]Finding, error) {
			return ordLint(in.pkgs, &in.ord), nil
		},
	},
	{
		Name:  "alloclint",
		Doc:   "//copier:noalloc functions checked against escape analysis",
		Rules: []string{RuleNoallocEscape, RuleNoallocMisplaced},
		run: func(in *runInput) ([]Finding, error) {
			fns, misplaced := CollectNoalloc(in.pkgs)
			escapes, err := AllocLint(in.ld.ModuleRoot, fns)
			if err != nil {
				return nil, err
			}
			return append(misplaced, escapes...), nil
		},
	},
}

// AllRules lists every rule identifier, in report order: each
// analyzer's rules in registry order, then the driver-level
// suppression-hygiene rules.
var AllRules = func() []string {
	var all []string
	for _, a := range Analyzers {
		all = append(all, a.Rules...)
	}
	return append(all, RuleSuppressBare, RuleSuppressUnused)
}()

// PhaseTime is one timed phase of a run (the shared package load,
// then each analyzer), surfaced by `copiervet -v`.
type PhaseTime struct {
	Name string
	D    time.Duration
}

// Result is a completed run.
type Result struct {
	Findings []Finding
	Counts   map[string]int
	// TypeErrorCount tallies packages whose type check did not fully
	// resolve (analysis still ran, possibly degraded).
	TypeErrorCount int
	ModuleRoot     string
	// Timings records per-phase wall time in execution order. The
	// package load runs exactly once; every analyzer shares it.
	Timings []PhaseTime
}

// Run loads the packages once and executes every registered analyzer
// over the shared load, returning the surviving (unsuppressed)
// findings sorted by position.
func Run(opts Options) (*Result, error) {
	res, _, err := run(opts)
	return res, err
}

// run is Run that also returns the run's shared input, for the tests
// that check the flow analyzers' fixpoints.
func run(opts Options) (*Result, *runInput, error) {
	if len(opts.Patterns) == 0 {
		opts.Patterns = []string{"./..."}
	}
	if opts.Cycles == (CycleConfig{}) {
		opts.Cycles = DefaultCycleConfig
	}
	if opts.Units.Dims == nil {
		opts.Units = DefaultUnitConfig
	}

	res := &Result{}

	start := time.Now()
	pkgs, ld, err := Load(opts.Dir, opts.Patterns...)
	if err != nil {
		return nil, nil, err
	}
	res.Timings = append(res.Timings, PhaseTime{"load", time.Since(start)})
	res.ModuleRoot = ld.ModuleRoot
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			res.TypeErrorCount++
		}
	}

	enabled := func(rule string) bool {
		if len(opts.Rules) == 0 {
			return true
		}
		for _, r := range opts.Rules {
			if r == rule {
				return true
			}
		}
		return false
	}
	anyEnabled := func(rules []string) bool {
		for _, r := range rules {
			if enabled(r) {
				return true
			}
		}
		return false
	}

	in := &runInput{opts: opts, pkgs: pkgs, ld: ld}
	var findings []Finding
	for _, a := range Analyzers {
		if !anyEnabled(a.Rules) {
			continue
		}
		t0 := time.Now()
		fs, err := a.run(in)
		if err != nil {
			return nil, nil, err
		}
		findings = append(findings, fs...)
		res.Timings = append(res.Timings, PhaseTime{a.Name, time.Since(t0)})
	}

	// Drop findings for disabled rules (analyzers may bundle rules).
	if len(opts.Rules) > 0 {
		var filtered []Finding
		for _, f := range findings {
			if enabled(f.Rule) {
				filtered = append(filtered, f)
			}
		}
		findings = filtered
	}

	sups, bad := CollectSuppressions(pkgs)
	findings = ApplySuppressions(findings, sups)
	if len(opts.Rules) > 0 {
		// A restricted run cannot tell a stale suppression from one
		// whose rule simply was not checked.
		var filtered []Finding
		for _, f := range findings {
			if f.Rule != RuleSuppressUnused {
				filtered = append(filtered, f)
			}
		}
		findings = filtered
	}
	findings = append(findings, bad...)
	SortFindings(findings)
	res.Findings = findings
	res.Counts = CountByRule(findings)
	return res, in, nil
}

// inDomain reports whether import path pkg falls under a domain dir
// of the module.
func inDomain(modulePath, pkg string) bool {
	rel := strings.TrimPrefix(pkg, modulePath+"/")
	if rel == pkg {
		return false // outside the module (or the root package)
	}
	for _, d := range DomainDirs {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}
