// Command copiervet is the project-invariant static-analysis suite:
// it machine-checks the properties that make this reproduction
// trustworthy — byte-determinism of the simulator domain, zero-alloc
// hot paths, cost-model hygiene, dimensional safety of the typed
// quantities, lifecycle typestate of the protocol objects, and
// happens-before publication order of the lock-free structures, whose
// shared words must be typed atomics — the way the paper's own
// CopierSanitizer (§5.1.2) checks programs against the Copier model.
//
// Usage:
//
//	copiervet [-rules det-time,unit-conv,...] [-json] [-v] [packages]
//
// With no packages it walks ./... from the current directory. Each
// finding prints as file:line:col: rule: message (fix: hint), sorted
// by (file, line, column, rule) so output is byte-stable; a per-rule
// count summary is printed on failure. -json replaces the text lines
// with one JSON array of {file,line,col,rule,msg,hint} objects (same
// order, same exit codes) for editor and CI integration; the analyzer
// inventory behind both streams is lint.Analyzers, the one registry
// in internal/lint/run.go. -v reports how long the shared package
// load and each analyzer took, one phase per registry entry. See
// internal/lint for the rule inventory and the //copiervet:ignore
// suppression syntax.
//
// Exit status is part of the contract scripts build on:
//
//	0 — no findings
//	1 — at least one unsuppressed finding
//	2 — the run itself failed (bad flags, unknown rule, load error)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"copier/internal/lint"
)

// jsonFinding is the -json record shape; the field set mirrors the
// text format so either stream carries the full finding.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
	Hint string `json:"hint,omitempty"`
}

func main() {
	os.Exit(vetMain(os.Args[1:], os.Stdout, os.Stderr))
}

// vetMain is the whole command, separated from main so tests can pin
// the output and exit-code contract without spawning a process.
func vetMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("copiervet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated rule IDs to check (default: all)")
	list := fs.Bool("list", false, "list known rules and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text lines")
	verbose := fs.Bool("v", false, "print per-analyzer timing to stderr")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: copiervet [-rules r1,r2] [-list] [-json] [-v] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Fprintf(stdout, "# %s — %s\n", a.Name, a.Doc)
			for _, r := range a.Rules {
				fmt.Fprintln(stdout, r)
			}
		}
		fmt.Fprintf(stdout, "# driver — suppression hygiene\n")
		fmt.Fprintln(stdout, lint.RuleSuppressBare)
		fmt.Fprintln(stdout, lint.RuleSuppressUnused)
		return 0
	}

	opts := lint.Options{Dir: ".", Patterns: fs.Args()}
	if *rules != "" {
		for _, r := range strings.Split(*rules, ",") {
			r = strings.TrimSpace(r)
			if !lint.KnownRule(r) {
				fmt.Fprintf(stderr, "copiervet: unknown rule %q (try -list)\n", r)
				return 2
			}
			opts.Rules = append(opts.Rules, r)
		}
	}

	res, err := lint.Run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "copiervet: %v\n", err)
		return 2
	}

	if *verbose {
		for _, pt := range res.Timings {
			fmt.Fprintf(stderr, "copiervet: %-10s %v\n", pt.Name, pt.D)
		}
	}

	cwd, _ := os.Getwd()
	if *jsonOut {
		recs := make([]jsonFinding, 0, len(res.Findings))
		for _, f := range res.Findings {
			recs = append(recs, jsonFinding{
				File: lint.RelPath(cwd, f.Pos.Filename),
				Line: f.Pos.Line, Col: f.Pos.Column,
				Rule: f.Rule, Msg: f.Msg, Hint: f.Hint,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recs); err != nil {
			fmt.Fprintf(stderr, "copiervet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range res.Findings {
			f.Pos.Filename = lint.RelPath(cwd, f.Pos.Filename)
			fmt.Fprintln(stdout, f.String())
		}
	}
	if n := len(res.Findings); n > 0 {
		fmt.Fprintf(stderr, "copiervet: %d finding(s): %s\n", n, lint.FormatCounts(res.Counts))
		return 1
	}
	return 0
}
