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
	// How tests script what production code reads.
	script = "test script"
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
	"unfold.Col2im":                     oracle, // the explicit BP-EI fold unfoldgemm's implicit unfold is pinned to
	"gemm.SerialAccum":                  oracle, // explicit BP-dW that unfoldgemm's implicit unfold is pinned to
	"sparse.FromDense":                  oracle, // CSR, CT-CSR's untiled reference
	"sparse.CSR.RowNNZ":                 oracle,
	"sparse.CSR.SpMM":                   oracle,
	"sparse.CTCSR.SpMM":                 oracle,
	"tensor.FromBlocked":                oracle,
	"tensor.UnblockWeights":             oracle,
	"tensor.FromSlice":                  instrument,
	"exec.Probe.SetClock":               script, // scripted time for the drift and planner tests
	"exec.Probe.SpanStats":              instrument,
	"exec.Probe.Spans":                  instrument,
	"plan.Planner.Lookup":               instrument,
}

// exported is the exported surface of spgcnn.go and internal/ as the census
// parses it: every exported function and method with its position, and for
// the doc lint every package's top-level names and every type's fields,
// methods and embedded types. Packages are keyed by their Go name.
type exported struct {
	funcs   []exportedFunc
	pkgs    map[string]bool     // package names
	names   map[string]bool     // "pkg.Name": exported func, type, var or const
	types   map[string][]string // "Type" -> "pkg.Type" of each exported declaration
	members map[string]bool     // "pkg.Type.Member": field or method
	embeds  map[string][]string // "pkg.Type" -> the "pkg.Type"s it embeds or is defined as
}

// exportedFunc is one exported function or method: its census name
// (package path under internal/, receiver, name), what a caller's selector
// or identifier resolves to, and where it is declared.
type exportedFunc struct{ name, use, pos string }

func parseExported(t *testing.T) exported {
	t.Helper()
	ex := exported{pkgs: map[string]bool{}, names: map[string]bool{}, types: map[string][]string{},
		members: map[string]bool{}, embeds: map[string][]string{}}
	fset := token.NewFileSet()
	for _, root := range []string{"spgcnn.go", "internal"} {
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
			name := f.Name.Name
			ex.pkgs[name] = true
			imports := map[string]string{} // local name -> package name
			for _, im := range f.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				pkgName := p[strings.LastIndex(p, "/")+1:]
				local := pkgName
				if im.Name != nil {
					local = im.Name.Name
				}
				imports[local] = pkgName
			}
			typeKey := func(e ast.Expr) string {
				for {
					switch x := e.(type) {
					case *ast.StarExpr:
						e = x.X
					case *ast.IndexExpr:
						e = x.X
					case *ast.Ident:
						return name + "." + x.Name
					case *ast.SelectorExpr:
						if id, ok := x.X.(*ast.Ident); ok {
							return imports[id.Name] + "." + x.Sel.Name
						}
						return ""
					default:
						return ""
					}
				}
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					fn := exportedFunc{short + "." + d.Name.Name, pkg + "." + d.Name.Name, fset.Position(d.Pos()).String()}
					if d.Recv != nil {
						recv := typeKey(d.Recv.List[0].Type)
						recv = recv[strings.IndexByte(recv, '.')+1:]
						fn.name = short + "." + recv + "." + d.Name.Name
						fn.use = "." + d.Name.Name
						ex.members[name+"."+recv+"."+d.Name.Name] = true
					} else {
						ex.names[name+"."+d.Name.Name] = true
					}
					ex.funcs = append(ex.funcs, fn)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range sp.Names {
								if id.IsExported() {
									ex.names[name+"."+id.Name] = true
								}
							}
						case *ast.TypeSpec:
							key := name + "." + sp.Name.Name
							if sp.Name.IsExported() {
								ex.names[key] = true
								ex.types[sp.Name.Name] = append(ex.types[sp.Name.Name], key)
							}
							var fields []*ast.Field
							switch ty := sp.Type.(type) {
							case *ast.StructType:
								fields = ty.Fields.List
							case *ast.InterfaceType:
								fields = ty.Methods.List
							default:
								ex.embeds[key] = append(ex.embeds[key], typeKey(ty))
							}
							for _, fl := range fields {
								for _, id := range fl.Names {
									ex.members[key+"."+id.Name] = true
								}
								if len(fl.Names) == 0 { // embedded: its name is a field too
									emb := typeKey(fl.Type)
									ex.embeds[key] = append(ex.embeds[key], emb)
									ex.members[key+"."+emb[strings.IndexByte(emb, '.')+1:]] = true
								}
							}
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(ex.funcs) < 100 {
		t.Fatalf("found only %d exported functions: the census walk is broken", len(ex.funcs))
	}
	return ex
}

// hasMember reports whether the type key, or a type it embeds or is
// defined as, has the field or method.
func (ex exported) hasMember(key, member string, seen map[string]bool) bool {
	if ex.members[key+"."+member] {
		return true
	}
	if seen[key] {
		return false
	}
	seen[key] = true
	for _, emb := range ex.embeds[key] {
		if ex.hasMember(emb, member, seen) {
			return true
		}
	}
	return false
}

// resolves reports whether a Go reference named in prose — pkg.Name,
// pkg.Type.Member, or Type.Member for an exported type of this module —
// names something declared. A reference into a package outside the module
// is not this lint's to check and resolves.
func (ex exported) resolves(ref string) bool {
	parts := strings.Split(ref, ".")
	first := parts[0]
	var owners []string
	switch {
	case ex.pkgs[first]:
		if !ex.names[first+"."+parts[1]] {
			return false
		}
		if len(parts) == 2 {
			return true
		}
		owners, parts = []string{first + "." + parts[1]}, parts[1:]
	case first[0] >= 'A' && first[0] <= 'Z':
		owners = ex.types[first]
	default:
		return true
	}
	for _, o := range owners {
		if ex.hasMember(o, parts[1], map[string]bool{}) {
			return true
		}
	}
	return false
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
	ex := parseExported(t)
	fset := token.NewFileSet()
	used := map[string]bool{} // "import/path.Func" or ".Method"
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
			notAUse := map[*ast.Ident]bool{} // declaration names and selector fields
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
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
	declared := map[string]bool{}
	for _, d := range ex.funcs {
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

// wallClock names the non-test files that read the wall clock through
// time.Now or time.Since, with how many reads each holds and why: these
// are where wall time is itself the output. Everything else times work on
// exec.Probe's clock, the one tests can script. The benchmark harness is
// its own module and times on the wall clock by design.
var wallClock = map[string]struct {
	reads int
	why   string
}{
	"internal/exec/probe.go":            {2, "the runtime clock behind Probe.Now"},
	"internal/machine/calibrate.go":     {4, "CalibrateHost's peak and stream timings"},
	"internal/bench/fig8.go":            {2, "a measured figure's timings"},
	"internal/trace/trace.go":           {4, "the trace recorder's timeline stamps"},
	"internal/plan/plan.go":             {2, "a measure span's place on the trace timeline"},
	"internal/serve/server.go":          {3, "a served batch's compute time and request latency"},
	"internal/serve/queue.go":           {3, "the admission queue's deadline timer"},
	"internal/serve/loadgen/loadgen.go": {1, "the load generator's arrival schedule"},
	"cmd/spg-serve/main.go":             {2, "the warm-up epilogue"},
	"examples/pruned_inference/main.go": {2, "an example's printed timing"},
	"examples/sparse_backprop/main.go":  {2, "an example's printed timing"},
}

// TestClockCensus is the one-clock rule as a test: a non-test file outside
// the benchmark module may name time.Now or time.Since only as often as
// wallClock allows it, so a new timer cannot bypass the probe's clock.
func TestClockCensus(t *testing.T) {
	fset := token.NewFileSet()
	reads := map[string]int{}
	for _, root := range []string{"spgcnn.go", "internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			timePkg := ""
			for _, im := range f.Imports {
				if im.Path.Value == `"time"` {
					timePkg = "time"
					if im.Name != nil {
						timePkg = im.Name.Name
					}
				}
			}
			if timePkg == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == timePkg {
						reads[filepath.ToSlash(path)]++
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
	for path, n := range reads {
		if allow := wallClock[path]; n != allow.reads {
			t.Errorf("%s reads the wall clock %d times, wallClock allows %d: time work on exec.Probe's clock "+
				"(Now, RecordSince), or name the wall-clock output in wallClock", path, n, allow.reads)
		}
	}
	for path, allow := range wallClock {
		if reads[path] == 0 {
			t.Errorf("wallClock names %s (%s), which reads no wall clock: drop the entry", path, allow.why)
		}
	}
}
