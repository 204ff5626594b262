package lint

import (
	"go/token"
	"strconv"
	"strings"
)

// Directive support: a comment of the form
//
//	//lint:ignore <analyzer> <reason>
//
// on a finding's line, or on the line directly above it, suppresses
// that analyzer's findings there. The reason is mandatory — an
// exemption without a recorded justification is itself a finding — and
// directives are kept honest: one that names no analyzer of the suite
// is reported as unknown, and one that names an analyzer in the running
// suite but suppresses nothing is reported as stale, so dead ignores
// cannot accumulate as the code or the roster underneath them changes.

const directivePrefix = "//lint:ignore"

// directive is one parsed //lint:ignore comment.
type directive struct {
	pos      token.Position
	analyzer string
	ok       bool // has both analyzer and reason
	used     bool
}

// collectDirectives parses every //lint:ignore comment in pkgs.
func collectDirectives(pkgs []*Package) []*directive {
	var out []*directive
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, found := strings.CutPrefix(c.Text, directivePrefix)
					if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
						continue
					}
					d := &directive{pos: pkg.Fset.Position(c.Pos())}
					fields := strings.Fields(rest)
					if len(fields) >= 1 {
						d.analyzer = fields[0]
					}
					d.ok = len(fields) >= 2
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// suppressedAt reports whether a well-formed directive for analyzer
// covers pos — same file, same line or the line directly above — and
// marks the directive used. The interprocedural summaries consult this
// at construction time, so an ignore on a nondeterminism *source*
// suppresses the caller-side findings the source would otherwise
// induce, while still counting as used for the staleness audit.
func suppressedAt(directives []*directive, pos token.Position, analyzer string) bool {
	hit := false
	for _, d := range directives {
		if d.ok && d.analyzer == analyzer && d.pos.Filename == pos.Filename &&
			(d.pos.Line == pos.Line || d.pos.Line == pos.Line-1) {
			d.used = true
			hit = true
		}
	}
	return hit
}

// applyDirectives filters findings through the //lint:ignore directives
// and appends directive-hygiene findings (malformed directives and
// names outside the full Analyzers roster always; stale ones when their
// analyzer actually ran).
func applyDirectives(directives []*directive, analyzers []*Analyzer, findings []Finding) []Finding {
	if len(directives) == 0 {
		return findings
	}
	ran, known := map[string]bool{}, map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	kept := findings[:0]
	for _, f := range findings {
		suppressed := false
		for _, d := range directives {
			if d.ok && d.analyzer == f.Analyzer && d.pos.Filename == f.Pos.Filename &&
				(d.pos.Line == f.Pos.Line || d.pos.Line == f.Pos.Line-1) {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	for _, d := range directives {
		switch {
		case !d.ok:
			kept = append(kept, Finding{Pos: d.pos, Analyzer: "directive",
				Message: "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\" — the reason is mandatory"})
		case !known[d.analyzer]:
			kept = append(kept, Finding{Pos: d.pos, Analyzer: "directive",
				Message: "//lint:ignore names unknown analyzer " + strconv.Quote(d.analyzer) + " (see dbsplint -list); it suppresses nothing, so fix the name or remove it"})
		case !d.used && ran[d.analyzer]:
			kept = append(kept, Finding{Pos: d.pos, Analyzer: "directive",
				Message: "stale //lint:ignore " + d.analyzer + ": it suppresses nothing on this or the next line; remove it"})
		}
	}
	return kept
}
