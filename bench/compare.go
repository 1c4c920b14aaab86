package main

// -compare: the rule every parent-versus-change comparison uses. Each file
// is one side's runs (JSON lines, as -o writes them); the first is the
// base. Per workload and end-to-end metric it prints each side's median
// and quartiles, the ratio with its base, and a verdict.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// loadReports reads one side: workload -> metric -> one value per run.
func loadReports(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	side := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if rep.Trace {
			continue
		}
		if side[rep.Workload] == nil {
			side[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			side[rep.Workload][name] = append(side[rep.Workload][name], m.Value)
		}
	}
	return side, sc.Err()
}

// spread is the distance between a sample's quartiles as a share of its
// median: the run-to-run noise a difference has to exceed.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// verdict judges a change against its base on one metric: "unresolved"
// when either side's spread is wider than the metric's bound — the runs
// cannot tell a regression of that size from noise — else "worse" when
// the change's median is beyond the bound on the bad side, else "same".
func verdict(d metricDef, base, change []float64) string {
	if spread(base) > d.Bound || spread(change) > d.Bound {
		return "unresolved"
	}
	worsening := median(change)/median(base) - 1
	if d.Better == "higher" {
		worsening = 1 - median(change)/median(base)
	}
	if worsening > d.Bound {
		return "worse"
	}
	return "same"
}

func compareFiles(w io.Writer, paths []string) error {
	if len(paths) < 2 {
		return fmt.Errorf("-compare needs a base file and at least one file to compare with it")
	}
	sides := make([]map[string]map[string][]float64, len(paths))
	for i, p := range paths {
		var err error
		if sides[i], err = loadReports(p); err != nil {
			return err
		}
	}
	base := sides[0]
	side := func(label string, xs []float64) string {
		q1, q3 := math.NaN(), math.NaN()
		if len(xs) >= 2 {
			q1, q3 = quartiles(xs)
		}
		return fmt.Sprintf("%-8s n=%-2d median %-12.6g q1 %-12.6g q3 %-12.6g", label, len(xs), median(xs), q1, q3)
	}
	for _, wl := range workloads {
		if base[wl.name] == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.name)
		for _, d := range endToEnd {
			b := base[wl.name][d.Name]
			fmt.Fprintf(w, "  %-18s %-5s %s\n", d.Name, d.Unit, side("base", b))
			for i := 1; i < len(sides); i++ {
				c := sides[i][wl.name][d.Name]
				if len(c) == 0 {
					continue
				}
				fmt.Fprintf(w, "  %-18s %-5s %s  x%.4f of base %.6g, bound %g: %s\n",
					"", "", side(filepath.Base(paths[i]), c), median(c)/median(b), median(b), d.Bound, verdict(d, b, c))
			}
		}
	}
	return nil
}
