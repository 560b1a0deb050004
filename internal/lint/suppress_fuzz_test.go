package lint

import (
	"strings"
	"testing"
)

// FuzzSuppress holds the //copiervet:ignore parser to its contract
// over arbitrary comment text: it never panics, it only accepts
// directives whose rules are all known and whose reason is non-empty,
// and accepted directives survive a canonicalize-and-reparse round
// trip. The seed corpus covers both syntaxes, multi-rule lists, and
// the malformed shapes that must come back as problems.
func FuzzSuppress(f *testing.F) {
	seeds := []string{
		"//copiervet:ignore det-time the harness wants wall time here",
		"//copiervet:ignore det-go,det-sync real threads by design",
		"//copiervet:ignore-file det-sync whole file is native-side",
		"//copiervet:ignore unit-conv boundary with the mini-IR stays int",
		"//copiervet:ignore raw-atomic word shared with a C caller that takes *int64",
		"//copiervet:ignore",
		"//copiervet:ignore ",
		"//copiervet:ignore det-time",
		"//copiervet:ignore no-such-rule because reasons",
		"//copiervet:ignore det-time,also-bogus mixed known and unknown",
		"//copiervet:ignore-file",
		"// ordinary comment",
		"//copiervet:ignorex not a directive",
		"//copiervet:ignore-file \t det-map-order  tabs and  spaces ",
		"//copiervet:ignore ,,, empty rule names",
		"//copiervet:ignore det-time nbsp is not a field separator",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, problems, ok := ParseIgnoreText(text)
		if !ok {
			if len(problems) != 0 || s.Rules != nil {
				t.Fatalf("non-directive %q returned rules/problems", text)
			}
			return
		}
		if len(problems) == 0 {
			// Accepted directive: well-formed by definition.
			if len(s.Rules) == 0 {
				t.Fatalf("accepted directive %q with no rules", text)
			}
			for _, r := range s.Rules {
				if !KnownRule(r) {
					t.Fatalf("accepted directive %q with unknown rule %q", text, r)
				}
			}
			if strings.TrimSpace(s.Reason) == "" {
				t.Fatalf("accepted directive %q with empty reason", text)
			}
			// Canonical re-serialization parses back to the same thing.
			prefix := "//copiervet:ignore "
			if s.FileScope {
				prefix = "//copiervet:ignore-file "
			}
			canon := prefix + strings.Join(s.Rules, ",") + " " + s.Reason
			s2, problems2, ok2 := ParseIgnoreText(canon)
			if !ok2 || len(problems2) != 0 {
				t.Fatalf("canonical form %q of %q did not reparse cleanly", canon, text)
			}
			if strings.Join(s2.Rules, ",") != strings.Join(s.Rules, ",") ||
				s2.FileScope != s.FileScope {
				t.Fatalf("round trip changed directive: %q -> %q", text, canon)
			}
		} else {
			// Problems must each carry a message; a problematic
			// directive never doubles as a usable suppression.
			for _, p := range problems {
				if p.Msg == "" {
					t.Fatalf("problem with empty message for %q", text)
				}
			}
		}
	})
}
