package zskyline

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
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
	"dominance.BruteForce":    true,
	"dominance.Register":      true,
	"gen.Scale":               true,
	"ooc.SkylineReader":       true,
	"point.SortLexicographic": true,
	"seq.BruteForce":          true,
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

// deadMethods is the ratchet of exported methods under internal/ that
// no non-test file calls, keyed "pkg.Type.Method". It may only shrink,
// like deadExports. Most entries are called by the standard library
// through an interface it declares (fmt.Stringer, sort.Interface,
// encoding.BinaryMarshaler, gob.GobEncoder, http.Handler, ...), which
// no file of this module names.
var deadMethods = map[string]bool{
	// Called by the standard library through fmt.Stringer, gob.GobEncoder
	// / GobDecoder, or errors and http.ResponseController unwrapping.
	"dist.FaultAction.String":       true,
	"gpmrs.Report.String":           true,
	"grouping.PGMap.String":         true,
	"mapreduce.TaskKind.String":     true,
	"obs.statusRecorder.Unwrap":     true,
	"point.Block.GobDecode":         true,
	"point.Block.GobEncode":         true,
	"server.respRecorder.Unwrap":    true,
	"transport.marshalError.Unwrap": true,
	"zorder.ZAddr.String":           true,
	"zorder.ZCol.GobDecode":         true,
	"zorder.ZCol.GobEncode":         true,

	// No caller yet.
	"codec.BinaryReader.Next":            true,
	"dist.Cluster.SkylineRangeBroadcast": true,
	"dist.FaultPlan.Injected":            true,
	"dominance.Caps.ZPrunable":           true,
	"dominance.KDom.K":                   true,
	"dominance.Robust.Rho":               true,
	"maintain.Maintainer.Dominators":     true,
	"mapreduce.Cluster.Workers":          true,
	"mapreduce.JobStats.MapDurations":    true,
	"metrics.Snapshot.Add":               true,
	"obs.EventLog.Len":                   true,
	"obs.LatencyHistogram.Count":         true,
	"obs.Span.Start":                     true,
	"partition.Angle.Name":               true,
	"partition.Grid.Name":                true,
	"partition.Random.Name":              true,
	"partition.RangeTable.Cuts":          true,
	"partition.RangeTable.Words":         true,
	"partition.ZCurve.Encoder":           true,
	"partition.ZCurve.Name":              true,
	"plan.Rule.PrunedPartitions":         true,
	"plan.Rule.SampleSkySize":            true,
	"plan.Strategy.UsesZOrder":           true,
	"point.Block.Bytes":                  true,
	"point.Block.Clone":                  true,
	"point.BlockBuilder.Dims":            true,
	"sample.Stream.AddBatch":             true,
	"sample.Stream.Seen":                 true,
	"server.Engine.Attrs":                true,
	"server.Engine.Descriptor":           true,
	"server.Service.Dataset":             true,
	"subspace.Cube.Of":                   true,
	"window.Skyline.Len":                 true,
	"zorder.ZCol.Bytes":                  true,
	"zorder.ZCol.Clone":                  true,
}

// TestInternalMethodsAreReferenced fails when an exported method of a
// type under internal/ has no caller in any non-test Go file and is not
// on the deadMethods ratchet. It type-checks the module (go/types, std
// imports from export data), so a call is attributed to its receiver
// type: Worker.MapChunk does not keep Rule.MapChunk alive. A method
// counts as called when it is selected directly, or when a method of
// a module interface it implements is.
func TestInternalMethodsAreReferenced(t *testing.T) {
	start := time.Now()
	m := typeCheckModule(t)
	used := map[*types.Func]bool{}
	var ifaceUsed []*types.Func // interface methods some file selects
	for _, info := range m.infos {
		for _, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if sig.Recv() == nil {
				continue
			}
			fn = fn.Origin()
			used[fn] = true
			if types.IsInterface(sig.Recv().Type()) {
				ifaceUsed = append(ifaceUsed, fn)
			}
		}
	}
	called := func(fn *types.Func) bool {
		if used[fn] {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, im := range ifaceUsed {
			if im.Name() != fn.Name() {
				continue
			}
			iface, ok := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if ok && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				return true
			}
		}
		return false
	}
	declared := map[string]bool{}
	var dead []string
	for path, files := range m.files {
		if !strings.HasPrefix(path, "zskyline/internal/") {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || !fd.Name.IsExported() {
					continue
				}
				fn := m.infos[path].Defs[fd.Name].(*types.Func)
				recv := fn.Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				named, ok := recv.(*types.Named)
				if !ok {
					continue
				}
				key := strings.TrimPrefix(path, "zskyline/internal/") + "." + named.Obj().Name() + "." + fn.Name()
				declared[key] = true
				if !called(fn) {
					dead = append(dead, key)
				}
			}
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		if !deadMethods[key] {
			t.Errorf("internal/%s is an exported method no non-test file calls", key)
		} else {
			delete(deadMethods, key)
		}
	}
	for key := range deadMethods {
		if declared[key] {
			t.Errorf("internal/%s is called now: drop it from deadMethods", key)
		} else {
			t.Errorf("internal/%s is gone: drop it from deadMethods", key)
		}
	}
	t.Logf("%d exported methods, %d on the ratchet, checked in %v", len(declared), len(dead), time.Since(start).Round(time.Millisecond))
}

// module holds every non-test Go package of the repository (the
// benchmark module included), type-checked from source.
type module struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> parsed files
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	std   types.Importer
}

func typeCheckModule(t *testing.T) *module {
	t.Helper()
	m := &module{fset: token.NewFileSet(), files: map[string][]*ast.File{},
		pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	m.std = importer.ForCompiler(m.fset, "gc", nil)
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
		dir, name := filepath.Split(path)
		if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(m.fset, path, nil, 0)
		if err != nil {
			return err
		}
		ip := "zskyline"
		if dir != "" {
			ip += "/" + filepath.ToSlash(filepath.Clean(dir))
		}
		m.files[ip] = append(m.files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range m.files {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// Import implements types.Importer: module packages are checked from
// source (once each), everything else comes from the toolchain.
func (m *module) Import(path string) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.infos[path] = pkg, info
	return pkg, nil
}
