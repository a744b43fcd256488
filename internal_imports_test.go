package zskyline

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalPackagesAreImported fails when a package under internal/
// is imported by no non-test Go file outside its own directory: code
// only its own tests reach is dead weight.
func TestInternalPackagesAreImported(t *testing.T) {
	internal := map[string]bool{} // import paths of internal packages
	used := map[string]bool{}     // import paths some other package imports
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		self := "zskyline/" + filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(self, "zskyline/internal/") {
			internal[self] = true
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if ip != self {
				used[ip] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(internal) == 0 {
		t.Fatal("found no internal packages; is the test running from the module root?")
	}
	var dead []string
	for pkg := range internal {
		if !used[pkg] {
			dead = append(dead, pkg)
		}
	}
	sort.Strings(dead)
	for _, pkg := range dead {
		t.Errorf("%s is imported by no non-test file outside itself", pkg)
	}
}

// deadExports is the ratchet of package-level exported funcs under
// internal/ that no non-test file references. It may only shrink: a
// new dead export fails the test, and so does an entry here that has
// since been deleted or put to use. Test oracles (seq.BruteForce and
// friends) stay on it by design.
var deadExports = map[string]bool{
	"approx.CoverRadius":      true,
	"codec.ReadBlock":         true,
	"codec.WriteBlock":        true,
	"core.AutoConfig":         true,
	"dominance.BruteForce":    true,
	"dominance.Register":      true,
	"dominance.VerifyBlock":   true,
	"gen.NewSource":           true,
	"gen.Scale":               true,
	"obs.TraceFrom":           true,
	"ooc.SkylineReader":       true,
	"parallel.SkylineOf":      true,
	"plan.ChunkBy":            true,
	"plan.SplitN":             true,
	"point.DominatesOrEqual":  true,
	"point.MaxCorner":         true,
	"point.MinCorner":         true,
	"point.NewBlockSource":    true,
	"point.NewSliceSource":    true,
	"point.ReadAll":           true,
	"point.SortLexicographic": true,
	"seq.BNL":                 true,
	"seq.BNLBlock":            true,
	"seq.BruteForce":          true,
	"seq.DC":                  true,
	"seq.FilterBlock":         true,
	"server.New":              true,
	"window.NewUnit":          true,
	"zorder.Equal":            true,
}

// TestInternalExportsAreReferenced fails when a package-level exported
// func under internal/ has no referent in any non-test Go file (its own
// package's or an importer's) and is not on the deadExports ratchet.
func TestInternalExportsAreReferenced(t *testing.T) {
	declared := map[string]bool{} // "zskyline/internal/pkg.Func"
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		self := "zskyline/" + filepath.ToSlash(filepath.Dir(path))
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			name := ip[strings.LastIndexByte(ip, '/')+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		skip := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				skip[fd.Name] = true
				if strings.HasPrefix(self, "zskyline/internal/") && fd.Name.IsExported() {
					declared[self+"."+fd.Name.Name] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !skip[n] {
					used[self+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no internal exports; is the test running from the module root?")
	}
	var dead []string
	for fn := range declared {
		if !used[fn] {
			dead = append(dead, strings.TrimPrefix(fn, "zskyline/internal/"))
		}
	}
	sort.Strings(dead)
	for _, fn := range dead {
		if !deadExports[fn] {
			t.Errorf("internal/%s is exported but no non-test file references it", fn)
		}
	}
	for fn := range deadExports {
		if key := "zskyline/internal/" + fn; !declared[key] || used[key] {
			t.Errorf("internal/%s is gone or referenced now: drop it from deadExports", fn)
		}
	}
}
