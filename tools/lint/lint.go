// txlint is the project's determinism-and-discipline linter: a
// multichecker over five analyzers that machine-check the invariants every
// engine's serial-equivalence proof rests on. The repo's replay model
// (sequential roots as oracles, fixed-lag snapshots, heat-ordered merge
// waves) tolerates zero nondeterminism in committed state, yet the hazards
// that break it — map-iteration order leaking into output, wall clocks or
// global RNG in deterministic paths, sloppy lock or error-wrapping
// discipline — are invisible to go vet and only probabilistically visible
// to the fuzzers. txlint fails CI the moment one is introduced.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so each analyzer's Run could be ported to a
// real multichecker unchanged; the build environment vendors no external
// modules, so loading is done with the standard library alone: package
// metadata and compiler export data come from `go list -export -json`, and
// target packages are type-checked from source against that export data
// (see loader.go).
//
// Findings are suppressed by waiver directives in the source:
//
//	//txlint:<keyword> <reason>
//
// on the flagged line or the line directly above it, where <keyword> is the
// analyzer's waiver keyword (ordered, clock, errwrap, lock, benchverify)
// and <reason> is mandatory non-empty prose. A waiver with an empty reason
// is itself a diagnostic and cannot be waived.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one named check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	Name string // short lower-case identifier, e.g. "maporder"
	Doc  string // one-paragraph description of what it enforces

	// Waiver is the directive keyword that suppresses this analyzer's
	// findings: `//txlint:<Waiver> <reason>`.
	Waiver string

	// Scope reports whether the analyzer applies to the package with the
	// given import path. A nil Scope means every package. The analysistest
	// runner overrides Scope so testdata packages are always in scope.
	Scope func(pkgPath string) bool

	// Run performs the check, reporting findings through the pass.
	Run func(*Pass)
}

// A Pass provides one analyzer with one type-checked package, mirroring
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	PkgPath   string

	waivers   map[string]map[int]*waiver // file -> line -> directive
	diags     *[]Diagnostic
	funcDecls map[*types.Func]*ast.FuncDecl // lazy, see funcDecl
}

// funcDecl resolves a package-level function object to its declaration,
// building the index on first use.
func (p *Pass) funcDecl(fn *types.Func) *ast.FuncDecl {
	if p.funcDecls == nil {
		p.funcDecls = make(map[*types.Func]*ast.FuncDecl)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if o, ok := p.ObjectOf(fd.Name).(*types.Func); ok {
						p.funcDecls[o] = fd
					}
				}
			}
		}
	}
	return p.funcDecls[fn]
}

// A Diagnostic is one finding, already resolved against waivers.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string

	// Waived is true when a matching //txlint:<keyword> directive with a
	// non-empty reason covers the flagged line; waived findings do not fail
	// the build but are listed under -waived.
	Waived bool
	Reason string // the waiver's reason, when Waived
}

func (d Diagnostic) String() string {
	state := ""
	if d.Waived {
		state = fmt.Sprintf(" (waived: %s)", d.Reason)
	}
	return fmt.Sprintf("%s: [%s] %s%s", d.Pos, d.Analyzer, d.Message, state)
}

// waiver is one parsed //txlint: directive.
type waiver struct {
	keyword string
	reason  string
	pos     token.Position
	used    bool
}

// Reportf records a finding at pos, resolving it against the waiver
// directives of its file. A directive matches when its keyword equals the
// analyzer's Waiver and it sits on the flagged line or the line directly
// above.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	d := Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if byLine, ok := p.waivers[position.Filename]; ok {
		for _, line := range []int{position.Line, position.Line - 1} {
			if w, ok := byLine[line]; ok && w.keyword == p.Analyzer.Waiver && w.reason != "" {
				w.used = true
				d.Waived = true
				d.Reason = w.reason
				break
			}
		}
	}
	*p.diags = append(*p.diags, d)
}

// TypeOf is a nil-safe shorthand for the pass's type information.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t := p.TypesInfo.TypeOf(e); t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

// ObjectOf resolves an identifier to its object (use or definition).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return p.TypesInfo.Defs[id]
}

const directivePrefix = "txlint:"

// parseWaivers extracts every //txlint: directive of a file, keyed by the
// line the directive ends on (a directive on its own line covers the next
// line through the line-above rule in Reportf; a trailing directive covers
// its own line).
func parseWaivers(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) map[string]map[int]*waiver {
	out := make(map[string]map[int]*waiver)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
				if !ok {
					continue
				}
				keyword, reason, _ := strings.Cut(text, " ")
				pos := fset.Position(c.Pos())
				w := &waiver{keyword: keyword, reason: strings.TrimSpace(reason), pos: pos}
				if w.reason == "" {
					// A bare waiver is worse than none: it silences a
					// determinism hazard without recording why that is safe.
					// This finding is deliberately unwaivable.
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "txlint",
						Message:  fmt.Sprintf("waiver //txlint:%s has no reason; write //txlint:%s <why this is safe>", keyword, keyword),
					})
					continue
				}
				if out[pos.Filename] == nil {
					out[pos.Filename] = make(map[int]*waiver)
				}
				out[pos.Filename][pos.Line] = w
			}
		}
	}
	return out
}

// runAnalyzers applies every analyzer to every in-scope package and returns
// the combined findings in file/line order. Waivers that matched nothing
// are reported too: a stale waiver either outlived its hazard or never
// covered one, and both deserve eyes.
func runAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		waivers := parseWaivers(pkg.Fset, pkg.Files, &diags)
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.PkgPath) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				PkgPath:   pkg.PkgPath,
				waivers:   waivers,
				diags:     &diags,
			}
			a.Run(pass)
		}
		ranKeywords := make(map[string]bool, len(analyzers))
		for _, a := range analyzers {
			ranKeywords[a.Waiver] = true
		}
		for _, byLine := range waivers {
			for _, w := range byLine {
				// A waiver is stale only relative to an analyzer that ran:
				// under -only, other analyzers' waivers are out of scope.
				if !w.used && ranKeywords[w.keyword] {
					diags = append(diags, Diagnostic{
						Pos:      w.pos,
						Analyzer: "txlint",
						Message:  fmt.Sprintf("stale waiver //txlint:%s: no %s finding on this or the next line", w.keyword, w.keyword),
					})
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// deterministicPackages are the packages whose execution must be bitwise
// reproducible across runs and replicas: they produce or order committed
// state. Scope helpers below key off this list.
var deterministicPackages = map[string]bool{
	"txconcur/internal/exec":      true,
	"txconcur/internal/core":      true,
	"txconcur/internal/heat":      true,
	"txconcur/internal/mvstore":   true,
	"txconcur/internal/mempool":   true,
	"txconcur/internal/dataset":   true,
	"txconcur/internal/wal":       true,
	"txconcur/internal/basestore": true,
}

// lockedPackages hold the mutexes guarding shared engine state; the
// lockdiscipline analyzer applies there.
var lockedPackages = map[string]bool{
	"txconcur/internal/mvstore":   true,
	"txconcur/internal/mempool":   true,
	"txconcur/internal/client":    true,
	"txconcur/internal/wal":       true,
	"txconcur/internal/basestore": true,
}

func inDeterministicScope(pkgPath string) bool { return deterministicPackages[pkgPath] }
func inLockedScope(pkgPath string) bool        { return lockedPackages[pkgPath] }
func inModuleScope(pkgPath string) bool {
	return pkgPath == "txconcur" || strings.HasPrefix(pkgPath, "txconcur/")
}
