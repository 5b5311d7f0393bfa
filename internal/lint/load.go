// The package loader: a small module-aware front end over go/parser
// and go/types. It resolves the module root from go.mod, parses each
// package directory (non-test files), and type-checks packages
// recursively — module-internal imports load from source, standard
// library imports come from the toolchain's export data via
// go/importer. No golang.org/x/tools dependency.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: syntax plus type
// information, which is what the analyzers consume.
type Package struct {
	// Path is the package's import path within the module.
	Path string
	// Fset positions every file in the loader's file set.
	Fset *token.FileSet
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the resolved identifier uses, definitions and
	// expression types.
	Info *types.Info
}

// Loader loads and type-checks packages of one module.
type Loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	std        types.Importer
	cache      map[string]*Package
	loading    map[string]bool
}

// NewLoader builds a loader for the module containing dir: it walks up
// from dir to the nearest go.mod and reads the module path from it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePathOf(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		moduleRoot: root,
		modulePath: modPath,
		std:        importer.Default(),
		cache:      map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// ModuleRoot returns the directory holding the module's go.mod.
func (l *Loader) ModuleRoot() string { return l.moduleRoot }

// ModulePath returns the module's declared import path.
func (l *Loader) ModulePath() string { return l.modulePath }

// modulePathOf extracts the module path from a go.mod file.
func modulePathOf(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", path)
}

// Load resolves a pattern to packages and type-checks them: "./..."
// is every package under the module root, anything else a
// module-relative directory like "./internal/store".
func (l *Loader) Load(pattern string) ([]*Package, error) {
	dirs := []string{l.dirOfPattern(pattern)}
	if pattern == "./..." {
		var err error
		if dirs, err = l.packageDirs(l.moduleRoot); err != nil {
			return nil, err
		}
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := l.loadPackage(l.pathOfDir(d))
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// dirOfPattern maps a pattern (import path or ./-relative dir) to a
// directory under the module root.
func (l *Loader) dirOfPattern(pat string) string {
	if pat == l.modulePath {
		return l.moduleRoot
	}
	if rest, ok := strings.CutPrefix(pat, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleRoot, filepath.FromSlash(rest))
	}
	return filepath.Join(l.moduleRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
}

// pathOfDir maps a directory under the module root to its import path.
func (l *Loader) pathOfDir(dir string) string {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

// packageDirs walks root collecting every directory holding non-test
// Go files, skipping testdata, vendor and hidden directories.
func (l *Loader) packageDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(path)
			if len(out) == 0 || out[len(out)-1] != dir {
				out = append(out, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walking %s: %w", root, err)
	}
	sort.Strings(out)
	return out, nil
}

// loadPackage parses and type-checks one package by import path,
// caching the result. Returns (nil, nil) for a directory with no
// non-test Go files.
func (l *Loader) loadPackage(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirOfPattern(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.cache[path] = nil
		return nil, nil
	}

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if imp == l.modulePath || strings.HasPrefix(imp, l.modulePath+"/") {
				pkg, err := l.loadPackage(imp)
				if err != nil {
					return nil, err
				}
				if pkg == nil {
					return nil, fmt.Errorf("no Go files in %s", imp)
				}
				return pkg.Types, nil
			}
			return l.std.Import(imp)
		}),
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.cache[path] = pkg
	return pkg, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
