package mpipredict

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// TestFacadeExportsAreExemplified holds the facade to the rule that
// every export is run by a checked Example: an exported name of
// mpipredict.go must be referenced as mpipredict.X inside an Example
// function of example_test.go, or be a type named in the signature of
// an exported function that is.
func TestFacadeExportsAreExemplified(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "mpipredict.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	examples, err := parser.ParseFile(fset, "example_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Every exported top-level name, and for functions the names their
	// signatures mention.
	var exports []string
	signatures := make(map[string][]string)
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil || !d.Name.IsExported() {
				continue
			}
			exports = append(exports, d.Name.Name)
			ast.Inspect(d.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					signatures[d.Name.Name] = append(signatures[d.Name.Name], id.Name)
				}
				return true
			})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exports = append(exports, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							exports = append(exports, name.Name)
						}
					}
				}
			}
		}
	}

	used := make(map[string]bool)
	for _, decl := range examples.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Example") {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "mpipredict" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	if len(used) == 0 {
		t.Fatal("no Example function references the facade")
	}

	kept := make(map[string]bool)
	for name := range used {
		kept[name] = true
		for _, id := range signatures[name] {
			kept[id] = true
		}
	}
	sort.Strings(exports)
	for _, name := range exports {
		if !kept[name] {
			t.Errorf("facade export %s is run by no Example and named in no exemplified signature: exemplify it or delete it", name)
		}
	}
}
