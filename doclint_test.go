package spgcnn_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"spgcnn"
)

// TestDocsNameOnlyWhatExists is the doc lint: every script, command,
// package, result file, baseline, experiment ID and strategy the docs name
// must exist in the tree, in Experiments() or in the planner's candidate
// sets — so deleting or renaming one fails tier-1 until the prose follows.
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

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(b), "\n") {
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
