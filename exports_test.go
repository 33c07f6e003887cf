package mpipredict

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
	"strings"
	"testing"
)

// internalExportAllowlist names the exported internal identifiers that
// may stay without a production caller, each with the reason it stays.
// Keys are "<package dir>.<Name>" or "<package dir>.<Type>.<Method>".
var internalExportAllowlist = map[string]string{
	"internal/evalx.EvaluateStream":           "cross-package test oracle: the root, serve, cluster and mpipredictd tests score a predictor over an in-memory stream with it",
	"internal/faultinject.NewTransport":       "client-side fault fake: the serve and cluster chaos tests wrap their HTTP clients with it",
	"internal/faultinject.Transport.Injected": "fault fake readout: the chaos tests assert the client-side schedule fired",
	"internal/faultinject.Listener.Injected":  "fault fake readout: the wire chaos tests assert the connection-level schedule fired",
	"internal/trace.Trace.Characterize":       "cross-package test oracle: the simmpi and workloads tests check Table 1 message counts with it",
	"internal/trace.Trace.SenderStreamShared": "the ROADMAP paper-grid item computes in-memory reordering from the (receiver, level) index with it",
	"internal/trace.Trace.SizeStreamShared":   "the ROADMAP paper-grid item computes in-memory reordering from the (receiver, level) index with it",
}

// TestInternalExportsHaveProductionCallers extends the facade rule to the
// whole module: every exported identifier declared in a non-test file
// under internal/ must be named by some non-test Go file of the module
// (bench/ and cmd/ included) outside its own declaration, or be a method
// that satisfies an interface the module names, or be on the allowlist
// above. Names are resolved with go/types, so a live method elsewhere that
// shares a dead method's name does not keep it.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	l := &moduleLoader{fset: token.NewFileSet(), pkgs: make(map[string]*loadedPackage)}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		_, err = l.load(modulePath(path))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Candidates: exported package-level names and exported methods
	// declared under internal/. owner maps each top-level declaration's
	// objects so that a use inside a declaration can be traced to it.
	candidates := make(map[types.Object]string)
	type use struct {
		obj    types.Object
		owners []types.Object
	}
	var uses []use
	interfaces := implicitInterfaces(l)
	for _, p := range l.pkgs {
		internal := strings.HasPrefix(p.pkg.Path(), "mpipredict/internal/")
		dir := strings.TrimPrefix(p.pkg.Path(), "mpipredict/")
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var owners []types.Object
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					owners = []types.Object{obj}
					if internal && d.Name.IsExported() {
						key := dir + "." + d.Name.Name
						if d.Recv != nil {
							key = dir + "." + receiverType(obj).Obj().Name() + "." + d.Name.Name
						}
						candidates[obj] = key
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, name := range names {
							obj := p.info.Defs[name]
							owners = append(owners, obj)
							if internal && name.IsExported() {
								candidates[obj] = dir + "." + name.Name
							}
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if fd, ok := decl.(*ast.FuncDecl); ok && n == fd.Recv {
						return false // a method does not keep its own type
					}
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if obj := p.info.Uses[id]; obj != nil {
						uses = append(uses, use{origin(obj), owners})
					}
					return true
				})
			}
		}
		for _, tv := range p.info.Types {
			collectInterfaces(tv.Type, interfaces)
		}
	}

	// A name is reached once a declaration that is not itself an
	// unreached candidate names it, so chains of dead code fall together.
	// A method that satisfies a named interface is reached with its type.
	// Allowlisted names keep what they use; called records which of them
	// production code reaches as well, so a stale entry shows.
	reached := make(map[types.Object]bool)
	called := make(map[types.Object]bool)
	implementers := interfaceMethods(l, interfaces)
	for obj, key := range candidates {
		if _, ok := internalExportAllowlist[key]; ok {
			reached[obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for m, carriers := range implementers {
			if _, cand := candidates[m]; !cand || called[m] {
				continue
			}
			for _, typ := range carriers {
				if _, cand := candidates[typ]; !cand || reached[typ] {
					reached[m], called[m] = true, true
					changed = true
					break
				}
			}
		}
		for _, u := range uses {
			if _, ok := candidates[u.obj]; !ok || called[u.obj] {
				continue
			}
			live := true
			for _, o := range u.owners {
				if _, cand := candidates[o]; o == u.obj || cand && !reached[o] {
					live = false
					break
				}
			}
			if live {
				reached[u.obj], called[u.obj] = true, true
				changed = true
			}
		}
	}

	keys := make(map[string]bool)
	var dead []string
	for obj, key := range candidates {
		keys[key] = true
		_, allowed := internalExportAllowlist[key]
		switch {
		case allowed && called[obj]:
			t.Errorf("allowlisted %s now has a production caller: drop it from the allowlist", key)
		case !reached[obj]:
			dead = append(dead, key+" ("+l.fset.Position(obj.Pos()).String()+")")
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("internal export %s is named by no non-test Go file outside its declaration: delete it, move it into the test that uses it, or allowlist it with a reason", key)
	}
	for key := range internalExportAllowlist {
		if !keys[key] {
			t.Errorf("allowlist entry %s names no exported internal declaration", key)
		}
	}
}

type loadedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// moduleLoader type-checks the module's non-test files from source,
// sharing one types.Package per import path so that a use in one package
// resolves to the very object another package declares.
type moduleLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*loadedPackage
}

func modulePath(dir string) string {
	if dir == "." {
		return "mpipredict"
	}
	return "mpipredict/" + filepath.ToSlash(dir)
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path != "mpipredict" && !strings.HasPrefix(path, "mpipredict/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *moduleLoader) load(path string) (*loadedPackage, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := "."
	if path != "mpipredict" {
		dir = filepath.FromSlash(strings.TrimPrefix(path, "mpipredict/"))
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &loadedPackage{info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// origin maps an instantiated generic function, method or field back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func receiverType(fn types.Object) *types.Named {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	return recv.(*types.Named)
}

// collectInterfaces records the non-empty interfaces a type expression
// names, looking one level into signatures so that an interface a called
// function takes (http.Handle's Handler, sort.Sort's Interface) counts.
func collectInterfaces(t types.Type, into map[*types.Interface]bool) {
	if sig, ok := t.(*types.Signature); ok {
		for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				collectInterfaces(tuple.At(i).Type(), into)
			}
		}
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
		into[iface] = true
	}
}

// implicitInterfaces are the interfaces the standard library looks for
// behind an any or an error: fmt's Stringer, the JSON and text marshalers
// and errors' Unwrap.
func implicitInterfaces(l *moduleLoader) map[*types.Interface]bool {
	into := make(map[*types.Interface]bool)
	// errors.Is, As and Unwrap look for an unnamed Unwrap() error.
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	into[types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete()] = true
	for path, names := range map[string][]string{
		"fmt":           {"Stringer"},
		"encoding":      {"TextMarshaler", "TextUnmarshaler"},
		"encoding/json": {"Marshaler", "Unmarshaler"},
	} {
		pkg, err := l.std.Import(path)
		if err != nil {
			continue
		}
		for _, name := range names {
			collectInterfaces(pkg.Scope().Lookup(name).Type(), into)
		}
	}
	return into
}

// interfaceMethods maps every method that some module type contributes to
// a named interface, its own or promoted through an embedded field, to the
// types whose values carry it into that interface.
func interfaceMethods(l *moduleLoader, interfaces map[*types.Interface]bool) map[types.Object][]types.Object {
	out := make(map[types.Object][]types.Object)
	for _, p := range l.pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, isIface := tn.Type().Underlying().(*types.Interface); isIface {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for iface := range interfaces {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(ptr, false, iface.Method(i).Pkg(), iface.Method(i).Name())
					if fn, ok := m.(*types.Func); ok {
						out[fn.Origin()] = append(out[fn.Origin()], tn)
					}
				}
			}
		}
	}
	return out
}
