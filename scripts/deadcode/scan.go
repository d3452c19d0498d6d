package main

import (
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
)

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	Dir, ImportPath, Name, Export string
	GoFiles                       []string
	Module                        *struct{ Path string }
}

// goList runs `go list -deps -export -json ./...` in dir with module
// downloads and toolchain switches off, so it works offline. Dependencies
// are listed before the packages that import them.
func goList(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOWORK=off", "GOTOOLCHAIN=local", "GOFLAGS=-buildvcs=false")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// scanner type-checks the packages of one module, and of the modules that
// use it, from source; every other package comes from the compiler's
// export data.
type scanner struct {
	fset    *token.FileSet
	gc      types.Importer
	exports map[string]string
	checked map[string]*types.Package
	info    *types.Info // shared by every package checked from source
	decls   []decl      // the module's functions, methods and types
	syntax  map[types.Object]ast.Node
	reached map[types.Object]bool
	queue   []types.Object
}

// decl is one package-level function, method or type of the module. name
// is "pkg.Name" for a function or type and "pkg.Type.Method" for a method;
// recv is "pkg.Type" for a method; pkg is the package's import path
// relative to the module root.
type decl struct {
	obj             types.Object
	name, recv, pkg string
}

func (s *scanner) Import(path string) (*types.Package, error) {
	if tp, ok := s.checked[path]; ok {
		return tp, nil
	}
	return s.gc.Import(path)
}

// check parses and type-checks a package's non-test files.
func (s *scanner) check(p *listedPackage) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	tp, err := (&types.Config{Importer: s}).Check(p.ImportPath, s.fset, files, s.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
	}
	s.checked[p.ImportPath] = tp
	return files, nil
}

// reach marks obj reached; an instantiation stands for its declaration.
func (s *scanner) reach(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if !s.reached[obj] {
		s.reached[obj] = true
		s.queue = append(s.queue, obj)
	}
}

// walk marks every object the syntax under n uses.
func (s *scanner) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && s.info.Uses[id] != nil {
			s.reach(s.info.Uses[id])
		}
		return true
	})
}

// run walks the declaration of every reached object until none is left,
// and returns the reached set, leaving an empty one for the next run.
func (s *scanner) run() map[types.Object]bool {
	for len(s.queue) > 0 {
		obj := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		if n, ok := s.syntax[obj]; ok {
			s.walk(n)
		}
	}
	reached := s.reached
	s.reached = map[types.Object]bool{}
	return reached
}

// scan reports the declarations of the module in root that nothing reaches
// from production code, as "file:line name" lines sorted by position,
// followed by one line per stale entry of hold. Every name of the module
// that the modules in extra (directories relative to root) use is reached.
func scan(root string, extra []string, hold map[string]string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	s := &scanner{fset: token.NewFileSet(), exports: map[string]string{}, checked: map[string]*types.Package{},
		info:   &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		syntax: map[types.Object]ast.Node{}, reached: map[types.Object]bool{}}
	s.gc = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := s.exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	listed, err := goList(root)
	if err != nil {
		return nil, err
	}
	mod := ""
	for _, p := range listed {
		s.exports[p.ImportPath] = p.Export
		if mod == "" && p.Module != nil {
			mod = p.Module.Path
		}
	}
	if mod == "" {
		return nil, fmt.Errorf("no module packages in %s", root)
	}

	// Interface method names: a method of that name may be called through
	// an interface value, so it counts as reached.
	ifaceNames := map[string]bool{"Error": true} // the universe's error
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
	var roots []ast.Node // syntax every use in which is reached
	for _, p := range listed {
		if p.Module == nil || p.Module.Path != mod {
			if p.ImportPath == "unsafe" {
				continue
			}
			tp, err := s.gc.Import(p.ImportPath)
			if err != nil {
				return nil, err
			}
			for _, name := range tp.Scope().Names() {
				if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
			continue
		}
		files, err := s.check(p)
		if err != nil {
			return nil, err
		}
		pkg := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, mod), "/")
		api := pkg == "" // the root package's exported names are its API
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					obj := s.info.Defs[fd.Name]
					s.syntax[obj] = fd
					if fd.Recv == nil && (fd.Name.Name == "init" || p.Name == "main" && fd.Name.Name == "main") {
						s.reach(obj)
						continue
					}
					d := decl{obj: obj, name: p.Name + "." + fd.Name.Name, pkg: pkg}
					if fd.Recv != nil {
						d.recv = p.Name + "." + recvName(fd)
						d.name = d.recv + "." + fd.Name.Name
					}
					if api && ast.IsExported(fd.Name.Name) && (fd.Recv == nil || ast.IsExported(recvName(fd))) {
						s.reach(obj)
					}
					s.decls = append(s.decls, d)
					continue
				}
				gd := d.(*ast.GenDecl)
				for _, spec := range gd.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						obj := s.info.Defs[spec.Name]
						s.syntax[obj] = spec
						s.decls = append(s.decls, decl{obj: obj, name: p.Name + "." + spec.Name.Name, pkg: pkg})
						if api && ast.IsExported(spec.Name.Name) {
							s.reach(obj)
						}
					case *ast.ValueSpec:
						if gd.Tok == token.VAR {
							roots = append(roots, spec) // initializers run at start-up
						}
						for _, n := range spec.Names {
							s.syntax[s.info.Defs[n]] = spec
							if api && ast.IsExported(n.Name) {
								s.reach(s.info.Defs[n])
							}
						}
					}
				}
			}
		}
	}
	for _, dir := range extra {
		ls, err := goList(filepath.Join(root, dir))
		if err != nil {
			return nil, err
		}
		for _, p := range ls {
			if _, ok := s.exports[p.ImportPath]; !ok {
				s.exports[p.ImportPath] = p.Export
			}
		}
		for _, p := range ls {
			if p.Module != nil && p.Module.Path != mod {
				files, err := s.check(p)
				if err != nil {
					return nil, err
				}
				for _, f := range files {
					roots = append(roots, f)
				}
			}
		}
	}
	for _, tv := range s.info.Types {
		if tv.IsType() {
			addIface(tv.Type)
		}
	}
	for _, d := range s.decls {
		if d.recv != "" && ifaceNames[d.obj.Name()] {
			s.reach(d.obj)
		}
	}
	for _, n := range roots {
		s.walk(n)
	}
	prod := s.run()

	// Held declarations, and whatever only they reach, are not reported.
	// Holding a type holds its methods; holding a package holds all of it.
	matched := map[string]bool{}
	stale := map[string]string{}
	for _, d := range s.decls {
		for _, h := range []string{d.name, d.recv, d.pkg} {
			if _, ok := hold[h]; ok && h != "" {
				matched[h] = true
				s.reach(d.obj)
				if h == d.name && prod[d.obj] {
					stale[h] = "reached by production code"
				}
			}
		}
	}
	held := s.run()
	sort.Slice(s.decls, func(i, j int) bool {
		pi, pj := s.fset.Position(s.decls[i].obj.Pos()), s.fset.Position(s.decls[j].obj.Pos())
		return pi.Filename < pj.Filename || pi.Filename == pj.Filename && pi.Line < pj.Line
	})
	var out []string
	missed := map[string]bool{} // packages with a declaration production misses
	for _, d := range s.decls {
		if prod[d.obj] {
			continue
		}
		missed[d.pkg] = true
		if !held[d.obj] {
			p := s.fset.Position(d.obj.Pos())
			if r, err := filepath.Rel(root, p.Filename); err == nil {
				p.Filename = r
			}
			out = append(out, fmt.Sprintf("%s:%d %s", p.Filename, p.Line, d.name))
		}
	}
	for h := range hold {
		switch {
		case !matched[h]:
			stale[h] = "no declaration by that name"
		case !strings.Contains(h, ".") && !missed[h]: // a package
			stale[h] = "reached by production code"
		}
	}
	var bad []string
	for h, why := range stale {
		bad = append(bad, fmt.Sprintf("hold %s: %s", h, why))
	}
	sort.Strings(bad)
	return append(out, bad...), nil
}

// recvName is the name of a method's receiver type.
func recvName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
