package spgcnn_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEveryEngineIsAPlannerCandidate is the engine census as a test: a
// package under internal/ that declares a function returning
// engine.Generator is a convolution engine, and an engine must be imported
// by internal/core/core.go — a member of FPStrategies/BPStrategies or the
// reference fallback — or it can never be deployed and does not belong in
// the tree.
func TestEveryEngineIsAPlannerCandidate(t *testing.T) {
	fset := token.NewFileSet()
	coreFile, err := parser.ParseFile(fset, "internal/core/core.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	imported := map[string]bool{}
	for _, im := range coreFile.Imports {
		path, _ := strconv.Unquote(im.Path.Value)
		imported[path] = true
	}

	engines := map[string]string{} // import path -> a generator function
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Type.Results == nil {
				continue
			}
			for _, res := range fn.Type.Results.List {
				sel, ok := res.Type.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Generator" {
					continue
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "engine" {
					engines["spgcnn/"+filepath.ToSlash(filepath.Dir(path))] = fn.Name.Name
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(engines) == 0 {
		t.Fatal("found no engine packages: the census walk is broken")
	}
	for pkg, fn := range engines {
		if !imported[pkg] {
			t.Errorf("%s declares %s returning engine.Generator but internal/core/core.go does not import it: "+
				"make it a planner candidate or delete it", pkg, fn)
		}
	}
}
