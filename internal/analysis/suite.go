package analysis

import (
	"sort"
	"strings"
)

// DefaultSuite returns the repository's eight analyzers in their
// canonical order: determinism, nopanic, floateq, exporteddoc,
// metricname, errflow, concurrency, hotalloc. Together with the
// directive-hygiene pseudo-check this is the nine-check suite
// cmd/minelint runs by default.
func DefaultSuite() []*Analyzer {
	return []*Analyzer{
		Determinism(), NoPanic(), FloatEq(), ExportedDoc(), MetricName(),
		ErrFlow(), Concurrency(), HotAlloc(),
	}
}

// DefaultPackageSkips is the package-level allowlist: for each check,
// the module-relative package prefixes it does not examine (the prefix
// covers subpackages).
//
//   - determinism skips the observability, parallel, and serving
//     layers, which legitimately read the wall clock (telemetry
//     timestamps; request-latency percentiles in internal/serve and its
//     loadgen subpackage) — their output never feeds solver results:
//     everything a solver computes flows through internal/core, which
//     stays fully checked. The transitive half of the check treats the
//     same packages as a trust boundary: call chains stop at their edge
//     rather than traversing through.
//   - concurrency skips the approved concurrency owners: the
//     deterministic pool (internal/parallel), observability servers
//     (internal/obs), the streaming population layer
//     (internal/population), and the serving daemon (internal/serve),
//     which owns the HTTP listener lifecycle, the single-flight result
//     cache, and graceful-drain signaling — request handling is
//     inherently concurrent, and the determinism the rest of the repo
//     protects is preserved by construction (responses are
//     byte-identical to sequential solves; pinned by the serve race
//     tests). Everyone else must ride those.
//   - hotalloc skips internal/obs and internal/parallel: telemetry and
//     pool plumbing allocate only in enabled/startup modes, and the
//     disabled-mode cost is pinned by the allocation-budget benchmarks,
//     so hot-path chains stop at that boundary.
func DefaultPackageSkips() map[string][]string {
	return map[string][]string{
		"determinism": {"internal/obs", "internal/parallel", "internal/serve"},
		"concurrency": {"internal/parallel", "internal/obs", "internal/population", "internal/serve"},
		"hotalloc":    {"internal/obs", "internal/parallel"},
	}
}

// RunConfig configures one suite run.
type RunConfig struct {
	// Dir is the directory patterns are resolved against; the
	// enclosing module is found by walking up to go.mod. Empty means
	// the current directory.
	Dir string
	// Patterns are directory-based package patterns ("./...",
	// "internal/core", ...). Empty means "./...".
	Patterns []string
	// Analyzers are the checks to run. Empty means DefaultSuite.
	Analyzers []*Analyzer
	// PackageSkips maps a check name to module-relative package
	// prefixes it skips. Nil means DefaultPackageSkips; use an empty
	// (non-nil) map to disable skipping.
	PackageSkips map[string][]string
	// NoDirectiveFindings suppresses the pseudo-check "directive"
	// findings (malformed, unknown-check, and stale //lint:allow
	// comments). The fixture harness sets it when running a single
	// analyzer, where staleness cannot be judged.
	NoDirectiveFindings bool
}

// Run loads every package matching the config's patterns, runs the
// configured analyzers over each (honoring the package-level
// allowlist), builds the whole-module call graph and runs the
// module-level (interprocedural) passes, filters findings through
// //lint:allow directives, and returns the surviving diagnostics
// sorted by position. A non-nil error means the run itself failed
// (unreadable pattern, parse or type-check failure) — findings are
// not errors.
func Run(cfg RunConfig) ([]Diagnostic, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	analyzers := cfg.Analyzers
	if len(analyzers) == 0 {
		analyzers = DefaultSuite()
	}
	skips := cfg.PackageSkips
	if skips == nil {
		skips = DefaultPackageSkips()
	}

	mod, err := LoadModule(dir)
	if err != nil {
		return nil, err
	}
	paths, err := mod.Expand(dir, patterns)
	if err != nil {
		return nil, err
	}
	analyzed := make([]*Package, 0, len(paths))
	for _, importPath := range paths {
		pkg, err := mod.Load(importPath)
		if err != nil {
			return nil, err
		}
		analyzed = append(analyzed, pkg)
	}
	return runSuite(mod, analyzed, analyzers, skips, cfg.NoDirectiveFindings)
}

// runSuite is the shared driver behind Run and the fixture harness:
// per-package passes, then the whole-module passes over the call
// graph, then directive resolution across all raw findings.
func runSuite(mod *Module, analyzed []*Package, analyzers []*Analyzer,
	skips map[string][]string, noDirectives bool) ([]Diagnostic, error) {

	known := make(map[string]bool, len(analyzers))
	hasModulePass := false
	for _, a := range analyzers {
		known[a.Name] = true
		if a.RunModule != nil {
			hasModulePass = true
		}
	}

	// Per-package state: the package's directives and the set of
	// checks that examined it (which decides directive eligibility
	// and staleness).
	type pkgState struct {
		pkg        *Package
		rel        string
		directives []*directive
		ran        map[string]bool
	}
	states := make([]*pkgState, 0, len(analyzed))
	stateByFile := make(map[string]*pkgState)
	for _, pkg := range analyzed {
		st := &pkgState{
			pkg:        pkg,
			rel:        relImportPath(mod, pkg.ImportPath),
			directives: scanDirectives(mod, pkg),
			ran:        make(map[string]bool),
		}
		states = append(states, st)
		for _, file := range pkg.Files {
			stateByFile[mod.Rel(mod.Fset.Position(file.Pos()).Filename)] = st
		}
	}

	var raw []Diagnostic
	report := func(d Diagnostic) {
		d.File = mod.Rel(d.File)
		raw = append(raw, d)
	}

	// Per-package (intra-procedural) passes.
	for _, st := range states {
		for _, a := range analyzers {
			if skipped(skips[a.Name], st.rel) {
				continue
			}
			st.ran[a.Name] = true
			if a.Run == nil {
				continue // module-only analyzer; ran-marking still applies
			}
			pass := &Pass{
				Fset:       mod.Fset,
				Files:      st.pkg.Files,
				Pkg:        st.pkg.Types,
				Info:       st.pkg.Info,
				ImportPath: st.pkg.ImportPath,
				analyzer:   a,
				report:     report,
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}

	// Whole-module (interprocedural) passes. The graph spans every
	// package the loader has seen — analyzed packages plus their
	// module-internal dependencies — so chains cross package
	// boundaries; //lint:allow directives anywhere in that universe
	// neutralize sinks.
	if hasModulePass {
		all := loadedUniverse(mod, analyzed)
		graph := BuildCallGraph(mod, all)
		allowIdx := buildAllowIndex(mod, all)
		for _, a := range analyzers {
			if a.RunModule == nil {
				continue
			}
			prefixes := skips[a.Name]
			var examined []*Package
			for _, st := range states {
				if !skipped(prefixes, st.rel) {
					examined = append(examined, st.pkg)
				}
			}
			mp := &ModulePass{
				Mod:      mod,
				Graph:    graph,
				Analyzed: examined,
				analyzer: a,
				skipRel:  func(rel string) bool { return skipped(prefixes, rel) },
				allowed:  allowIdx[a.Name],
				report:   report,
			}
			if err := a.RunModule(mp); err != nil {
				return nil, err
			}
		}
	}

	// Directive resolution: suppress allowed findings, then report
	// directive hygiene (malformed, unknown, stale).
	var final []Diagnostic
	for _, diag := range raw {
		st := stateByFile[diag.File]
		if st == nil {
			final = append(final, diag)
			continue
		}
		if len(applyDirectives([]Diagnostic{diag}, st.directives, st.ran)) > 0 {
			final = append(final, diag)
		}
	}
	if !noDirectives {
		for _, st := range states {
			final = append(final, directiveFindings(st.directives, known, st.ran)...)
		}
	}
	sortDiagnostics(final)
	return final, nil
}

// loadedUniverse returns every package the module loader has seen —
// the analyzed set plus all module-internal dependencies loaded while
// type-checking — deduplicated and sorted by import path.
func loadedUniverse(mod *Module, analyzed []*Package) []*Package {
	seen := make(map[string]bool, len(analyzed))
	var all []*Package
	for _, pkg := range analyzed {
		if !seen[pkg.ImportPath] {
			seen[pkg.ImportPath] = true
			all = append(all, pkg)
		}
	}
	for path, pkg := range mod.pkgs {
		if pkg == nil || seen[path] {
			continue
		}
		seen[path] = true
		all = append(all, pkg)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ImportPath < all[j].ImportPath })
	return all
}

// buildAllowIndex maps check -> file -> target line for every
// well-formed //lint:allow directive in the given packages. Module
// passes consult it so a directive at a sink call site neutralizes the
// sink for transitive traversal, not just the local finding.
func buildAllowIndex(mod *Module, pkgs []*Package) map[string]map[string]map[int]bool {
	idx := make(map[string]map[string]map[int]bool)
	for _, pkg := range pkgs {
		for _, d := range scanDirectives(mod, pkg) {
			if d.malformed != "" {
				continue
			}
			files := idx[d.check]
			if files == nil {
				files = make(map[string]map[int]bool)
				idx[d.check] = files
			}
			lines := files[d.file]
			if lines == nil {
				lines = make(map[int]bool)
				files[d.file] = lines
			}
			lines[d.target] = true
		}
	}
	return idx
}

// relImportPath strips the module path prefix from an import path,
// yielding the module-relative package path skip prefixes match on.
func relImportPath(mod *Module, importPath string) string {
	return strings.TrimPrefix(strings.TrimPrefix(importPath, mod.Path), "/")
}

// skipped reports whether a module-relative package path matches one
// of the skip prefixes (a prefix covers the package and its subtree).
func skipped(prefixes []string, rel string) bool {
	for _, p := range prefixes {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}
