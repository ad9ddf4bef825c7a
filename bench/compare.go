package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

var errNoReports = errors.New("no run reports found")

// loadReports reads the end-to-end run reports at path: one report
// file, or every run-*.json of a directory written by -out. Traced
// runs carry no bounded metrics and are skipped.
func loadReports(path string) ([]result, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "run-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: %w", path, errNoReports)
	}
	return out, nil
}

// medians is workload → metric → the median over the runs given.
func medians(runs []result) map[string]map[string]float64 {
	vals := map[string]map[string][]float64{}
	for _, r := range runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], v.Value)
		}
	}
	out := map[string]map[string]float64{}
	for wl, ms := range vals {
		out[wl] = map[string]float64{}
		for name, xs := range ms {
			out[wl][name] = median(xs)
		}
	}
	return out
}

// compareReports prints, per workload and end-to-end metric, A's and
// B's medians, how much worse B is as a share of A, and the bound; it
// reports whether any metric is past its bound or any run of B failed
// its output checks.
func compareReports(w io.Writer, pathA, pathB string) (bool, error) {
	runsA, err := loadReports(pathA)
	if err != nil {
		return false, err
	}
	runsB, err := loadReports(pathB)
	if err != nil {
		return false, err
	}
	a, b := medians(runsA), medians(runsB)
	past := false
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %9s %7s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, wl := range workloads {
		ma, mb := a[wl.Name], b[wl.Name]
		if ma == nil || mb == nil {
			continue
		}
		for _, d := range endToEnd {
			va, okA := ma[d.Name]
			vb, okB := mb[d.Name]
			if !okA || !okB {
				continue
			}
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = (va - vb) / va
			}
			flag := ""
			if worse > d.Bound {
				flag = "  REGRESSION"
				past = true
			}
			fmt.Fprintf(w, "%-14s %-16s %12.4f %12.4f %+8.1f%% %6.0f%%%s\n", wl.Name, d.Name, va, vb, 100*worse, 100*d.Bound, flag)
		}
	}
	for _, r := range runsB {
		if !r.Correct {
			fmt.Fprintf(w, "%s seed %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
			past = true
		}
	}
	return past, nil
}
