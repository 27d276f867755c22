package fbdcnet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceKeepFile lists the exported identifiers that no non-test code
// references but that stay anyway, one "identifier  reason" per line.
const surfaceKeepFile = "surface_keep.txt"

// TestExportedSurface fails on every exported package-level name or
// method of the module that no non-test code in the module or in
// perfbench/ references and that surface_keep.txt does not list, and on
// every keep-list entry that is referenced again or no longer exists.
// Struct fields are not checked. The pass is stdlib only:
// `go list` finds the packages, go/parser and go/types check them from
// source, and standard-library imports come from compiler export data.
//
// A use inside the identifier's own declaration does not count, and
// neither does a use of a type inside its own methods. A method counts
// as referenced when its type satisfies an interface that non-test code
// uses (or fmt.Stringer or json.Marshaler) and that interface has the
// method.
func TestExportedSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	unused, err := unreferencedExports()
	if err != nil {
		t.Fatal(err)
	}
	keep, err := readKeepList(surfaceKeepFile)
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for _, id := range unused {
		if _, ok := keep[id]; !ok {
			missing = append(missing, id)
		}
		delete(keep, id)
	}
	if len(missing) > 0 {
		t.Errorf("%d exported identifiers are referenced by no non-test code; delete them or list them with a reason in %s:\n\t%s",
			len(missing), surfaceKeepFile, strings.Join(missing, "\n\t"))
	}
	var stale []string
	for id := range keep {
		stale = append(stale, id)
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("%d %s entries are referenced or gone; remove them:\n\t%s",
			len(stale), surfaceKeepFile, strings.Join(stale, "\n\t"))
	}
}

// readKeepList parses the keep-list: blank lines and #-comments are
// skipped, and every entry must carry a reason after its identifier.
func readKeepList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	keep := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, id)
		}
		if _, dup := keep[id]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, id)
		}
		keep[id] = strings.TrimSpace(reason)
	}
	return keep, sc.Err()
}

// listedPackage is the part of `go list -json` output the pass reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
}

// goList runs `go list -json` in dir with args and decodes its stream.
func goList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v in %s: %v\n%s", args, dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// unreferencedExports returns the sorted keys ("pkg.Name" or
// "pkg.Type.Method", pkg relative to the module) of every exported
// identifier of the module's non-test code that nothing references.
func unreferencedExports() ([]string, error) {
	mod, err := goList(".", "./...")
	if err != nil {
		return nil, err
	}
	bench, err := goList("perfbench", "./...")
	if err != nil {
		return nil, err
	}
	local := map[string]*listedPackage{}
	for _, ps := range [][]listedPackage{mod, bench} {
		for i := range ps {
			local[ps[i].ImportPath] = &ps[i]
		}
	}
	stdSet := map[string]bool{}
	for _, p := range local {
		for _, imp := range p.Imports {
			if local[imp] == nil {
				stdSet[imp] = true
			}
		}
	}
	std := []string{"fmt", "encoding/json"}
	for imp := range stdSet {
		std = append(std, imp)
	}
	exports, err := goList(".", append([]string{"-export"}, std...)...)
	if err != nil {
		return nil, err
	}
	exportFile := map[string]string{}
	for _, p := range exports {
		exportFile[p.ImportPath] = p.Export
	}

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exportFile[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	s := &surface{
		fset:    fset,
		checked: map[string]*types.Package{},
		local:   local,
		std:     gc.(types.ImporterFrom),
		used:    map[types.Object]bool{},
		ifaces:  map[string]*types.Interface{},
	}
	for _, p := range append(mod, bench...) {
		if _, err := s.check(p.ImportPath); err != nil {
			return nil, err
		}
	}
	// fmt and encoding/json look these up dynamically on any value.
	for _, dyn := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}} {
		pkg, err := s.std.Import(dyn[0])
		if err != nil {
			return nil, err
		}
		s.addIface(pkg.Scope().Lookup(dyn[1]).Type())
	}

	modPath := mod[0].ImportPath
	if i := strings.Index(modPath, "/"); i >= 0 {
		modPath = modPath[:i]
	}
	var out []string
	for _, p := range mod {
		pkg := s.checked[p.ImportPath]
		rel := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, modPath), "/")
		if rel == "" {
			rel = "."
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() && !s.used[obj] {
				out = append(out, rel+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !s.used[m] && !s.satisfies(named, m) {
					out = append(out, rel+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// surface type-checks the local packages from source and records every
// object their non-test code uses.
type surface struct {
	fset    *token.FileSet
	checked map[string]*types.Package
	local   map[string]*listedPackage
	std     types.ImporterFrom
	used    map[types.Object]bool
	ifaces  map[string]*types.Interface // by type string
}

func (s *surface) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s *surface) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if s.local[path] != nil {
		return s.check(path)
	}
	return s.std.ImportFrom(path, dir, mode)
}

// check type-checks one local package (once) and records its uses.
func (s *surface) check(path string) (*types.Package, error) {
	if pkg := s.checked[path]; pkg != nil {
		return pkg, nil
	}
	lp := s.local[path]
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.checked[path] = pkg
	for _, f := range files {
		s.recordUses(f, info)
	}
	for _, tv := range info.Types {
		s.addIface(tv.Type)
	}
	for _, obj := range info.Defs {
		if obj != nil {
			s.addIface(obj.Type())
		}
	}
	return pkg, nil
}

// recordUses marks every object f's declarations use, skipping uses
// inside the object's own declaration and uses of a type inside its own
// methods.
func (s *surface) recordUses(f *ast.File, info *types.Info) {
	for _, decl := range f.Decls {
		var self []types.Object
		switch d := decl.(type) {
		case *ast.FuncDecl:
			self = append(self, info.Defs[d.Name])
			if d.Recv != nil {
				if tn := recvTypeName(d.Recv.List[0].Type, info); tn != nil {
					self = append(self, tn)
				}
			}
			s.markUses(d, info, self)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					self = []types.Object{info.Defs[sp.Name]}
				case *ast.ValueSpec:
					self = self[:0]
					for _, n := range sp.Names {
						self = append(self, info.Defs[n])
					}
				default:
					continue
				}
				s.markUses(spec, info, self)
			}
		}
	}
}

func (s *surface) markUses(n ast.Node, info *types.Info, self []types.Object) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		for _, o := range self {
			if o == obj {
				return true
			}
		}
		s.used[obj] = true
		return true
	})
}

// recvTypeName resolves a method receiver expression to its type name.
func recvTypeName(x ast.Expr, info *types.Info) types.Object {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return info.Uses[e]
		default:
			return nil
		}
	}
}

// addIface records t when it is an interface with methods.
func (s *surface) addIface(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 {
		return
	}
	s.ifaces[types.TypeString(t, nil)] = it
}

// satisfies reports whether T or *T implements a used interface that
// has method m.
func (s *surface) satisfies(named *types.Named, m *types.Func) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range s.ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
