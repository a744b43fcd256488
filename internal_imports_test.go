package zskyline

import (
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
