package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runSet is every untraced result file of one directory, by workload.
type runSet map[string][]runFile

func loadRunSet(dir string) (runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.e2e.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s holds no *.e2e.json result files", dir)
	}
	set := runSet{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f runFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		set[f.Workload] = append(set[f.Workload], f)
	}
	return set, nil
}

func values(runs []runFile, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges one end-to-end metric of one workload by the rule of the
// choosing-metrics guide: worse by more than the bound is regressed; a
// spread (inter-quartile distance over median) wider than the bound on
// either side is unresolved, not unchanged; better by more than the base's
// own spread is improved.
func verdict(m declMetric, base, cur []float64) (baseMed, curMed, ratio float64, v string) {
	baseMed, curMed = median(base), median(cur)
	if baseMed == 0 {
		return baseMed, curMed, 0, "unresolved"
	}
	ratio = curMed / baseMed
	worse := ratio - 1
	if m.Better == "higher" {
		worse = 1 - ratio
	}
	sb, sc := spreadShare(base), spreadShare(cur)
	switch {
	case sb > m.Bound || sc > m.Bound:
		v = "unresolved"
	case worse > m.Bound:
		v = "regressed"
	case -worse > sb && -worse > sc:
		v = "improved"
	default:
		v = "unchanged"
	}
	return baseMed, curMed, ratio, v
}

// strategyFlips lists every layer-phase or bucket whose deployed strategy
// differs between the two run sets — the usual cause of a bimodal metric.
// Each run counts how many of its segments deployed which strategy; a key is
// flagged when some strategy's share of segments differs by a quarter or
// more between the sets (close candidates trade places run to run, so a
// smaller shift is weather).
func strategyFlips(base, cur []runFile) []string {
	shares := func(runs []runFile) map[string]map[string]float64 {
		out := map[string]map[string]float64{}
		totals := map[string]float64{}
		for _, r := range runs {
			for k, m := range r.Info.Deployed {
				if out[k] == nil {
					out[k] = map[string]float64{}
				}
				for strategy, n := range m {
					out[k][strategy] += float64(n)
					totals[k] += float64(n)
				}
			}
		}
		for k, m := range out {
			for strategy := range m {
				m[strategy] /= totals[k]
			}
		}
		return out
	}
	describe := func(m map[string]float64) string {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Slice(names, func(a, b int) bool {
			if m[names[a]] != m[names[b]] {
				return m[names[a]] > m[names[b]]
			}
			return names[a] < names[b]
		})
		for i, name := range names {
			names[i] = fmt.Sprintf("%s %.0f%%", name, 100*m[name])
		}
		return strings.Join(names, ", ")
	}
	a, b := shares(base), shares(cur)
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var out []string
	for k := range keys {
		moved := 0.0
		for strategy, share := range a[k] {
			moved = math.Max(moved, math.Abs(share-b[k][strategy]))
		}
		for strategy, share := range b[k] {
			moved = math.Max(moved, math.Abs(share-a[k][strategy]))
		}
		if moved >= 0.25 {
			out = append(out, fmt.Sprintf("%s: [%s] -> [%s]", k, describe(a[k]), describe(b[k])))
		}
	}
	sort.Strings(out)
	return out
}

// compareMain implements `compare <a> <b>`: one row per workload and
// end-to-end metric, then the strategy flips. It returns 1 when any row
// regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare <base-dir> <new-dir>   (directories of *.e2e.json result files)")
		return 2
	}
	decl, err := loadDeclaration(declFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	base, err := loadRunSet(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	cur, err := loadRunSet(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	code := 0
	fmt.Printf("%-20s %-14s %5s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "runs", "base", "new", "ratio", "iqr_b", "iqr_n", "bound", "verdict")
	for _, w := range workloads() {
		b, c := base[w.Name], cur[w.Name]
		if len(b) == 0 || len(c) == 0 {
			fmt.Printf("%-20s missing from one of the sets\n", w.Name)
			continue
		}
		for _, m := range decl.EndToEnd {
			bv, cv := values(b, m.Name), values(c, m.Name)
			bm, cm, ratio, v := verdict(m, bv, cv)
			if v == "regressed" {
				code = 1
			}
			fmt.Printf("%-20s %-14s %2d/%-2d %12.6g %12.6g %8.4f %6.2f%% %6.2f%% %5.0f%%  %s (%s is better, base %.6g %s)\n",
				w.Name, m.Name, len(bv), len(cv), bm, cm, ratio,
				100*spreadShare(bv), 100*spreadShare(cv), 100*m.Bound, v, m.Better, bm, m.Unit)
		}
		for _, flip := range strategyFlips(b, c) {
			fmt.Printf("%-20s strategy differs  %s\n", w.Name, flip)
		}
		if h0, h1 := b[0].Info, c[0].Info; h0.Host != h1.Host || h0.GOMAXPROCS != h1.GOMAXPROCS {
			fmt.Printf("%-20s host differs  %s GOMAXPROCS %d -> %s GOMAXPROCS %d\n",
				w.Name, h0.Host, h0.GOMAXPROCS, h1.Host, h1.GOMAXPROCS)
		}
	}
	return code
}
