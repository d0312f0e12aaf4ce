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

// Why an exported function or method with no non-test caller stays.
const (
	// A reference implementation or equation tests compare production
	// code against, or a switch that steers it for them.
	oracle = "test oracle"
	// How tests read what production code recorded.
	instrument = "test instrument"
	// Unreferenced, but its deletion is a ROADMAP item, not this census's.
	pending = "deletion pending in ROADMAP items 3-4"
)

// censusAllow names the exported functions and methods that no non-test
// file references and that stay anyway, each with its reason.
var censusAllow = map[string]string{
	"ait.MM.AITPerCore":                 oracle, // the paper's Eqs. 5-9
	"ait.MM.AITPerCoreRow":              oracle,
	"ait.GoodputUpperBound":             oracle,
	"ait.Goodput":                       oracle,
	"conv.BackwardInputGatherRef":       oracle,
	"engine/enginetest.Run":             oracle,
	"engine/enginetest.RunDifferential": oracle,
	"gemm.Naive":                        oracle,
	"gemm.Matrix.Transpose":             oracle,
	"gemm.ForcePackedForTest":           oracle,
	"sparse.FromDense":                  oracle, // CSR, CT-CSR's untiled reference
	"sparse.CSR.RowNNZ":                 oracle,
	"sparse.CSR.SpMM":                   oracle,
	"sparse.CTCSR.SpMM":                 oracle,
	"tensor.FromBlocked":                oracle,
	"tensor.UnblockWeights":             oracle,
	"tensor.FromSlice":                  instrument,
	"exec.Probe.SetSink":                instrument,
	"exec.Probe.SpanStats":              instrument,
	"exec.Probe.Spans":                  instrument,
	"obs.Coupler.Pending":               instrument,
	"plan.Planner.Lookup":               instrument,
	"gemm.PackedB.Release":              pending, // with PackB's Allocator seam
	"gemm.Batch":                        pending, // batchpar is what schedules GEMM-in-Parallel
	"metrics.Registry.SpanTree":         pending, // item 4's typed span
	"metrics.SpanTree.Find":             pending,
	"nn.Network.DisableProfiling":       pending, // with spg-train -profile
	"nn.Network.ResetProfile":           pending,
}

// TestEveryExportedFuncHasAProductionCaller is the exported-surface census
// as a test: an exported function or method declared in a non-test file
// under internal/ or in spgcnn.go must be referenced by name from at least
// one non-test .go file (commands, examples and the benchmark harness
// included) other than at its declaration, or be named in censusAllow.
// Functions are matched package-qualified (pkg.Name through the file's
// imports, or the bare name inside the declaring package); methods by
// selector name alone, so an interface's method list is not a caller.
func TestEveryExportedFuncHasAProductionCaller(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ name, use, pos string }
	var decls []decl
	notAUse := map[*ast.Ident]bool{} // declaration names and selector fields
	used := map[string]bool{}        // "import/path.Func" or ".Method"

	for _, root := range []string{"spgcnn.go", "internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := strings.TrimSuffix("spgcnn/"+filepath.ToSlash(filepath.Dir(path)), "/.")
			short := strings.TrimPrefix(pkg, "spgcnn/internal/")
			if root == "spgcnn.go" || root == "internal" {
				for _, d := range f.Decls {
					fn, ok := d.(*ast.FuncDecl)
					if !ok || !fn.Name.IsExported() {
						continue
					}
					dc := decl{short + "." + fn.Name.Name, pkg + "." + fn.Name.Name, fset.Position(fn.Pos()).String()}
					if fn.Recv != nil {
						recv := fn.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						dc.name = short + "." + recv.(*ast.Ident).Name + "." + fn.Name.Name
						dc.use = "." + fn.Name.Name
					}
					decls = append(decls, dc)
					notAUse[fn.Name] = true
				}
			}
			imports := map[string]string{} // local name -> import path
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				name := p[strings.LastIndex(p, "/")+1:]
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = p
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					notAUse[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						used[imports[x.Name]+"."+n.Sel.Name] = true
					} else {
						used["."+n.Sel.Name] = true
					}
				case *ast.Ident:
					if !notAUse[n] {
						used[pkg+"."+n.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) < 100 {
		t.Fatalf("found only %d exported functions: the census walk is broken", len(decls))
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		if !used[d.use] && censusAllow[d.name] == "" {
			t.Errorf("%s: %s has no non-test caller: delete it, or name it in censusAllow with a reason", d.pos, d.name)
		}
	}
	for name := range censusAllow {
		if !declared[name] {
			t.Errorf("censusAllow names %s, which is not declared: drop the entry", name)
		}
	}
}
