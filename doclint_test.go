package spgcnn_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"spgcnn"
)

// commandFlags reads the flag names each cmd/spg-* command declares on its
// FlagSet — calls like fs.Int("name", ...) or fs.StringVar(&v, "name", ...)
// in its non-test files — plus the flag package's own -h and -help.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob("cmd/spg-*/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("found no command sources: %v", err)
	}
	flags := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(path))
		if flags[cmd] == nil {
			flags[cmd] = map[string]bool{"h": true, "help": true}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "fs" {
				return true
			}
			arg := 0 // fs.Int(name, ...) / fs.IntVar(&v, name, ...)
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if arg < len(call.Args) {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					flags[cmd][name] = true
				}
			}
			return true
		})
	}
	return flags
}

// TestDocsNameOnlyWhatExists is the doc lint: every script, command,
// package, result file, baseline, experiment ID, strategy and command-line
// flag the docs name must exist in the tree, in Experiments(), in the
// planner's candidate sets or on the command's FlagSet — so deleting or
// renaming one fails tier-1 until the prose follows.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	experiments := map[string]bool{}
	for _, e := range spgcnn.Experiments() {
		experiments[e.ID] = true
	}
	strategies := map[string]bool{"auto": true} // the planner itself, as -strategy spells it
	for _, st := range append(spgcnn.FPStrategies(1), spgcnn.BPStrategies(1)...) {
		strategies[st.Name] = true
	}
	isExperiment := func(id string) bool { return experiments[id] }
	isStrategy := func(name string) bool { return strategies[name] }
	onDisk := func(path string) bool {
		_, err := os.Stat(strings.TrimRight(path, "./"))
		return err == nil
	}

	// A reference spelled with a glob, alternation or placeholder
	// character names a family, not one thing; the patterns capture those
	// characters so such a match is skipped rather than truncated.
	const family = "*<>{}|"
	refs := []struct {
		what   string
		re     *regexp.Regexp
		exists func(string) bool
	}{
		{"path", regexp.MustCompile(`\b((?:scripts|cmd|internal|results|baselines)/[A-Za-z0-9_./*<>{}|,-]+)`), onDisk},
		{"experiment", regexp.MustCompile(`-exp ([a-z0-9*<>-]+)`), isExperiment},
		{"strategy", regexp.MustCompile(`-strategy ([a-z*<>-]+)`), isStrategy},
		{"strategy", regexp.MustCompile(`StrategyByName\("([^"]*)"`), isStrategy},
		{"strategy", regexp.MustCompile(`\b[fb]p=([a-z][a-z-]*)`), isStrategy},
	}

	// Flags. An invocation — a command name followed by its arguments, up
	// to the end of the code span or shell word list — attaches each -name
	// to that command; a code span that is only a flag (`-name` or `-name
	// value`) attaches it to whichever command the prose is about, so it
	// must be declared by at least one. Arguments of the go tool are not a
	// command's.
	flags := commandFlags(t)
	if len(flags) != 7 || len(flags["spg-train"]) < 20 {
		t.Fatalf("read %d commands, %d spg-train flags: the flag walk is broken", len(flags), len(flags["spg-train"]))
	}
	invocation := regexp.MustCompile("\\b(spg-[a-z]+)((?: +[^ `|;&#()]+)*)")
	flagWord := regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	looseFlag := regexp.MustCompile("`-([a-z][a-z0-9-]*)[ =`]")
	goTool := map[string]bool{"short": true, "race": true, "gcflags": true}
	checkFlags := func(doc string, n int, line string) {
		for _, m := range invocation.FindAllStringSubmatchIndex(line, -1) {
			cmd, args := line[m[2]:m[3]], line[m[4]:m[5]]
			if flags[cmd] == nil {
				continue
			}
			// `go test ./cmd/spg-bench -run X`: the flags are the go tool's.
			if i := strings.LastIndex(line[:m[0]], "go test"); i >= 0 && !strings.Contains(line[i:m[0]], "`") {
				continue
			}
			for _, word := range strings.Fields(args) {
				if f := flagWord.FindStringSubmatch(word); f != nil && !flags[cmd][f[1]] {
					t.Errorf("%s:%d: %s declares no flag -%s", doc, n+1, cmd, f[1])
				}
			}
		}
		for _, m := range looseFlag.FindAllStringSubmatch(line, -1) {
			declared := goTool[m[1]]
			for _, set := range flags {
				declared = declared || set[m[1]]
			}
			if !declared {
				t.Errorf("%s:%d: no command declares flag -%s", doc, n+1, m[1])
			}
		}
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cmdline, first := "", 0
		for n, line := range strings.Split(string(b), "\n") {
			// A trailing backslash continues a shell command onto the next line.
			if cmdline == "" {
				first = n
			}
			cmdline += strings.TrimSuffix(line, "\\")
			if !strings.HasSuffix(line, "\\") {
				checkFlags(doc, first, cmdline)
				cmdline = ""
			}
			for _, ref := range refs {
				for _, m := range ref.re.FindAllStringSubmatch(line, -1) {
					name := strings.TrimRight(m[1], ",")
					if strings.ContainsAny(name, family) || ref.exists(name) {
						continue
					}
					t.Errorf("%s:%d: %s %q does not exist", doc, n+1, ref.what, name)
				}
			}
		}
	}
}
