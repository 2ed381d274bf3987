// Command replint is the repo's invariant linter: a multichecker over the
// internal/analysis suite (ctxflow, detrand, goroctx, lockguard,
// metricname, oncevalid, unsafeconfine, viewmut). It runs two ways:
//
// Standalone, against the module in the current directory:
//
//	replint ./...
//	replint ./internal/nbindex ./internal/server
//	replint -list
//	replint -json ./...
//	replint -detrand=false ./...
//
// Standalone runs execute packages in import order with a shared fact
// store, so cross-package facts (viewmut's taint, goroctx's CancelAware,
// oncevalid's annotations) flow from dependencies even when only a subset
// of packages is requested.
//
// As a go vet tool, speaking vet's unitchecker .cfg protocol (version
// handshake via -V=full, one JSON config file per package). Facts are gob-
// serialized to each package's .vetx file and read back from the
// dependencies' files the driver lists:
//
//	go build -o bin/replint ./cmd/replint
//	go vet -vettool=$PWD/bin/replint ./...
//
// Diagnostics print as file:line:col: message [analyzer] (or as one JSON
// object per line under -json). Standalone mode exits 1 when anything is
// reported; vettool mode exits 2, matching x/tools' unitchecker so go vet
// fails the build. Individual findings are silenced at the source line with
// `//lint:allow <analyzer> <reason>`; a directive that suppresses nothing
// is itself reported (allowcheck).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"graphrep/internal/analysis/ctxflow"
	"graphrep/internal/analysis/detrand"
	"graphrep/internal/analysis/framework"
	"graphrep/internal/analysis/goroctx"
	"graphrep/internal/analysis/lockguard"
	"graphrep/internal/analysis/metricname"
	"graphrep/internal/analysis/oncevalid"
	"graphrep/internal/analysis/unsafeconfine"
	"graphrep/internal/analysis/viewmut"
)

// version feeds go vet's tool-identity cache; bump it when analyzer behavior
// changes so stale cached verdicts are invalidated.
const version = "replint-1.2.1"

var analyzers = []*framework.Analyzer{
	ctxflow.Analyzer,
	detrand.Analyzer,
	goroctx.Analyzer,
	lockguard.Analyzer,
	metricname.Analyzer,
	oncevalid.Analyzer,
	unsafeconfine.Analyzer,
	viewmut.Analyzer,
}

func main() {
	framework.RegisterFactTypes(analyzers)
	args := os.Args[1:]
	// go vet protocol handshakes come before normal flag parsing: -V=full
	// requests a version line keyed to the tool name, -flags a JSON
	// description of supported analyzer flags.
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			fmt.Printf("%s version %s\n", filepath.Base(os.Args[0]), version)
			return
		case "-flags", "--flags":
			fmt.Println("[]")
			return
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVettool(args[0]))
	}
	os.Exit(runStandalone(args))
}

// ---- standalone mode ----

func runStandalone(args []string) int {
	flags := flag.NewFlagSet("replint", flag.ExitOnError)
	list := flags.Bool("list", false, "list analyzers and exit")
	jsonOut := flags.Bool("json", false, "emit one JSON diagnostic per line instead of plain text")
	enabled := map[string]*bool{}
	for _, a := range analyzers {
		enabled[a.Name] = flags.Bool(a.Name, true, "enable the "+a.Name+" analyzer")
	}
	flags.Usage = func() {
		fmt.Fprintf(flags.Output(), `replint: graphrep's invariant linter.

Usage:
  replint [flags] [packages]        standalone, against the enclosing module
  go vet -vettool=replint ./...     as a vet tool (unitchecker protocol)

Exit codes:
  0  no findings
  1  standalone mode reported findings, or an internal error occurred
  2  vettool mode reported findings (matches x/tools' unitchecker, so
     go vet fails the build)

Flags:
`)
		flags.PrintDefaults()
	}
	flags.Parse(args)
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	var active []*framework.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, moduleName, err := findModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "replint:", err)
		return 1
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replint:", err)
		return 1
	}
	loader := framework.NewLoader(func(path string) (string, bool) {
		if path == moduleName {
			return root, true
		}
		if rest, ok := strings.CutPrefix(path, moduleName+"/"); ok {
			dir := filepath.Join(root, filepath.FromSlash(rest))
			if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
				return dir, true
			}
		}
		return "", false
	})

	// Load every requested package first, then analyze the whole cached set
	// (dependencies included) in import order through one shared fact store:
	// facts exported while analyzing internal/mmapfile are visible when its
	// importers run, even if only the importer was requested.
	var requested []string
	for _, dir := range dirs {
		importPath := moduleName
		if rel, err := filepath.Rel(root, dir); err == nil && rel != "." {
			importPath = moduleName + "/" + filepath.ToSlash(rel)
		}
		if _, err := loader.LoadDir(dir, importPath); err != nil {
			fmt.Fprintln(os.Stderr, "replint:", err)
			return 1
		}
		requested = append(requested, importPath)
	}
	byPath, err := framework.RunAll(loader.Cached(), active)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replint:", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	found := 0
	for _, importPath := range requested {
		for _, d := range byPath[importPath] {
			found++
			if *jsonOut {
				enc.Encode(jsonDiag{
					File:     d.Pos.Filename,
					Line:     d.Pos.Line,
					Col:      d.Pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				})
				continue
			}
			fmt.Println(d)
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "replint: %d issue(s)\n", found)
		return 1
	}
	return 0
}

// jsonDiag is the -json wire form: one object per diagnostic, one per line.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// findModule walks upward from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, name string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return abs, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", abs)
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// expandPatterns resolves ./...-style patterns to package directories
// (directories containing at least one non-test .go file), skipping
// testdata, vendor, and hidden trees.
func expandPatterns(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		if pat == "" || pat == "." {
			pat = root
		}
		base, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !recursive {
			if hasGoFiles(base) {
				add(base)
			} else {
				return nil, fmt.Errorf("no Go files in %s", pat)
			}
			continue
		}
		err = filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

// ---- go vet (unitchecker) mode ----

// vetConfig mirrors the JSON config cmd/go writes for each package when
// driving a -vettool (the x/tools unitchecker.Config wire format).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runVettool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "replint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The driver requires the facts file to exist on every exit path, even
	// the early typecheck-failure ones; write an empty placeholder now and
	// overwrite it with the real gob-encoded facts after the run.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "replint:", err)
			return 1
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "replint:", err)
			return 1
		}
		files = append(files, f)
	}

	// Imports resolve through the export data cmd/go already compiled,
	// translated through the vendoring/ImportMap indirection first.
	compImp := importer.ForCompiler(fset, compilerOrGC(cfg.Compiler), func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		return compImp.Import(importPath)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "replint:", err)
		return 1
	}

	pkg := &framework.Package{
		Fset:       fset,
		Files:      files,
		Pkg:        tpkg,
		Info:       info,
		Dir:        cfg.Dir,
		ImportPath: cfg.ImportPath,
	}
	store := framework.NewFactStore()
	importFacts(store, &cfg, tpkg)
	diags, err := framework.RunWithStore(pkg, analyzers, store)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replint:", err)
		return 1
	}
	if cfg.VetxOutput != "" {
		if facts, err := store.EncodeFacts(tpkg); err == nil {
			if err := os.WriteFile(cfg.VetxOutput, facts, 0o666); err != nil {
				fmt.Fprintln(os.Stderr, "replint:", err)
				return 1
			}
		}
	}
	// A VetxOnly run exists to produce this package's facts for an importer
	// being vetted; diagnostics here were either already reported or are out
	// of the requested package set, so stay silent.
	if cfg.VetxOnly {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// importFacts loads the gob-encoded fact files cmd/go lists for this
// package's dependencies into the store. Each file is keyed by import path;
// the owning *types.Package is found in the transitive import graph of the
// package under analysis. Missing or unresolvable entries are skipped —
// facts degrade to per-package analysis rather than failing the vet run.
func importFacts(store *framework.FactStore, cfg *vetConfig, tpkg *types.Package) {
	all := map[string]*types.Package{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || all[p.Path()] != nil {
			return
		}
		all[p.Path()] = p
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	walk(tpkg)
	paths := make([]string, 0, len(cfg.PackageVetx))
	for path := range cfg.PackageVetx {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		p := all[path]
		if p == nil {
			if mapped, ok := cfg.ImportMap[path]; ok {
				p = all[mapped]
			}
		}
		if p == nil {
			continue
		}
		data, err := os.ReadFile(cfg.PackageVetx[path])
		if err != nil {
			continue
		}
		if err := store.DecodeFacts(data, p); err != nil {
			fmt.Fprintf(os.Stderr, "replint: facts for %s: %v\n", path, err)
		}
	}
}

func compilerOrGC(compiler string) string {
	if compiler == "" {
		return "gc"
	}
	return compiler
}

// importerFunc adapts a function to types.Importer (the same trick
// x/tools/go/analysis/unitchecker uses).
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
