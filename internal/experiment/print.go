package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// PrintPoints renders a threshold-sweep result (Figures 2/3) as one
// aligned table, grouped by model.
func PrintPoints(w io.Writer, title string, points []Point) {
	fmt.Fprintf(w, "== %s ==\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model\teps1%\teps2%\texposure%\tmask%\tupsilon\tgen_ms\t|U|\tmax_rank\tsatisfied%")
	for _, p := range points {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.3f\t%.3f\t%.2f\t%.2f\t%.2f\t%.1f\t%.0f\n",
			ModelName(p.K), p.Eps1*100, p.Eps2*100,
			p.Exposure*100, p.Mask*100, p.Upsilon, p.GenTime*1000,
			p.USize, p.MaxRank, p.Satisfied*100)
	}
	tw.Flush()
}

// PrintPDXPoints renders Figure 4.
func PrintPDXPoints(w io.Writer, points []PDXPoint) {
	fmt.Fprintln(w, "== Figure 4: PDX exposure by expansion factor ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model\texpansion\teps%\texposure%\tqueries")
	for _, p := range points {
		fmt.Fprintf(tw, "%s\t%.0fx\t%.1f\t%.3f\t%d\n",
			ModelName(p.K), p.Expansion, p.Eps*100, p.Exposure*100, p.Queries)
	}
	tw.Flush()
}

// PrintRatioPoints renders Figure 5.
func PrintRatioPoints(w io.Writer, points []RatioPoint) {
	fmt.Fprintln(w, "== Figure 5: exposure ratio TopPriv / PDX (equal word budgets) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model\tupsilon\ttoppriv%\tpdx%\tratio\tqueries")
	for _, p := range points {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t%d\n",
			ModelName(p.K), p.Upsilon, p.TopPriv*100, p.PDX*100, p.Ratio, p.Queries)
	}
	tw.Flush()
}

// PrintScalePoints renders Figure 6.
func PrintScalePoints(w io.Writer, points []ScalePoint) {
	fmt.Fprintln(w, "== Figure 6: LDA model size vs inverted index size ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "docs\tvocab\tindex_KB\tmodel_KB\tsaving%")
	for _, p := range points {
		fmt.Fprintf(tw, "%d\t%d\t%.1f\t%.1f\t%.1f\n",
			p.NumDocs, p.VocabSize,
			float64(p.IndexBytes)/1024, float64(p.ModelBytes)/1024, p.Saving*100)
	}
	tw.Flush()
}

// PrintTopicColumns renders a Table II/III/IV style topics table: one
// column per topic, words top-down.
func PrintTopicColumns(w io.Writer, title string, cols []TopicColumn) {
	fmt.Fprintf(w, "== %s ==\n", title)
	if len(cols) == 0 {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	headers := make([]string, len(cols))
	depth := 0
	for i, c := range cols {
		headers[i] = c.Header
		if len(c.Words) > depth {
			depth = len(c.Words)
		}
	}
	fmt.Fprintln(tw, strings.Join(headers, "\t"))
	for r := 0; r < depth; r++ {
		row := make([]string, len(cols))
		for i, c := range cols {
			if r < len(c.Words) {
				row[i] = c.Words[r]
			}
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
}

// PrintPIR renders the §II PIR cost table.
func PrintPIR(w io.Writer, r PIRReport) {
	fmt.Fprintln(w, "== PIR impracticality (paper §II) ==")
	fmt.Fprintf(w, "mean postings list length:  %.1f\n", r.MeanListLen)
	fmt.Fprintf(w, "max postings list length:   %d\n", r.MaxListLen)
	fmt.Fprintf(w, "index size:                 %.1f KB\n", float64(r.IndexBytes)/1024)
	fmt.Fprintf(w, "PIR-padded size:            %.1f KB\n", float64(r.PaddedPIRBytes)/1024)
	fmt.Fprintf(w, "blowup factor:              %.1fx\n", r.Blowup)
}

// PrintAttacks renders the §IV-D resilience table.
func PrintAttacks(w io.Writer, rows []AttackRow) {
	fmt.Fprintln(w, "== Attack resilience (paper §IV-D) ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "attack\tscheme\tmetric\tvalue\trandom_baseline")
	for _, r := range rows {
		base := "-"
		if r.Baseline != 0 {
			base = fmt.Sprintf("%.3f", r.Baseline)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.3f\t%s\n", r.Attack, r.Scheme, r.Metric, r.Value, base)
	}
	tw.Flush()
}

// WritePointsCSV emits the sweep points as CSV for external plotting.
func WritePointsCSV(w io.Writer, points []Point) error {
	if _, err := fmt.Fprintln(w, "model,k,eps1,eps2,exposure,mask,upsilon,gen_seconds,u_size,max_rank,satisfied"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%s,%d,%g,%g,%g,%g,%g,%g,%g,%g,%g\n",
			ModelName(p.K), p.K, p.Eps1, p.Eps2, p.Exposure, p.Mask,
			p.Upsilon, p.GenTime, p.USize, p.MaxRank, p.Satisfied); err != nil {
			return err
		}
	}
	return nil
}

// GroupByK splits points into per-model series sorted by ε2 — the shape
// plotting libraries want.
func GroupByK(points []Point) map[int][]Point {
	out := make(map[int][]Point)
	for _, p := range points {
		out[p.K] = append(out[p.K], p)
	}
	for k := range out {
		series := out[k]
		sort.Slice(series, func(i, j int) bool { return series[i].Eps2 < series[j].Eps2 })
		out[k] = series
	}
	return out
}
