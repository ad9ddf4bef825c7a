package experiment

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is one line of an ASCII chart: a label and (x, y) points.
type Series struct {
	Label  string
	Points [][2]float64
}

// Chart renders aligned-text line charts so `cmd/experiments` output
// carries figure *shapes*, not just tables — handy for eyeballing the
// paper comparison in a terminal without a plotting stack.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Width  int // plot columns (default 64)
	Height int // plot rows (default 16)
	Series []Series
}

var chartMarks = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Render draws the chart.
func (c *Chart) Render(w io.Writer) error {
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 16
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	total := 0
	for _, s := range c.Series {
		for _, p := range s.Points {
			total++
			minX = math.Min(minX, p[0])
			maxX = math.Max(maxX, p[0])
			minY = math.Min(minY, p[1])
			maxY = math.Max(maxY, p[1])
		}
	}
	if total == 0 {
		return fmt.Errorf("experiment: chart %q has no points", c.Title)
	}
	if minY > 0 {
		minY = 0 // anchor at zero for magnitude plots
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		mark := chartMarks[si%len(chartMarks)]
		pts := append([][2]float64{}, s.Points...)
		sort.Slice(pts, func(i, j int) bool { return pts[i][0] < pts[j][0] })
		var prevCol, prevRow int
		for pi, p := range pts {
			col := int((p[0] - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((p[1]-minY)/(maxY-minY)*float64(height-1))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = mark
			// Sparse linear interpolation between consecutive points.
			if pi > 0 {
				steps := col - prevCol
				for step := 1; step < steps; step++ {
					ic := prevCol + step
					ir := prevRow + (row-prevRow)*step/steps
					if grid[ir][ic] == ' ' {
						grid[ir][ic] = '.'
					}
				}
			}
			prevCol, prevRow = col, row
		}
	}

	if c.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", c.Title); err != nil {
			return err
		}
	}
	yTop := fmt.Sprintf("%.3g", maxY)
	yBot := fmt.Sprintf("%.3g", minY)
	margin := len(yTop)
	if len(yBot) > margin {
		margin = len(yBot)
	}
	for r, rowBytes := range grid {
		label := strings.Repeat(" ", margin)
		if r == 0 {
			label = fmt.Sprintf("%*s", margin, yTop)
		}
		if r == height-1 {
			label = fmt.Sprintf("%*s", margin, yBot)
		}
		if _, err := fmt.Fprintf(w, "%s |%s\n", label, string(rowBytes)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", margin), strings.Repeat("-", width)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s  %-*.3g%*.3g  (%s vs %s)\n",
		strings.Repeat(" ", margin), width/2, minX, width-width/2, maxX, c.YLabel, c.XLabel); err != nil {
		return err
	}
	var legend []string
	for si, s := range c.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", chartMarks[si%len(chartMarks)], s.Label))
	}
	_, err := fmt.Fprintf(w, "%s  legend: %s\n", strings.Repeat(" ", margin), strings.Join(legend, "  "))
	return err
}

// ExposureChart builds a Figure 2/3-style chart from sweep points: one
// series per model, exposure% against ε2%.
func ExposureChart(title string, points []Point) *Chart {
	chart := &Chart{Title: title, XLabel: "eps2 %", YLabel: "exposure %", Height: 12}
	groups := GroupByK(points)
	var ks []int
	for k := range groups {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		s := Series{Label: ModelName(k)}
		for _, p := range groups[k] {
			s.Points = append(s.Points, [2]float64{p.Eps2 * 100, p.Exposure * 100})
		}
		chart.Series = append(chart.Series, s)
	}
	return chart
}

// RatioChart builds the Figure 5 chart: ratio against υ per model.
func RatioChart(points []RatioPoint) *Chart {
	chart := &Chart{
		Title:  "Figure 5 shape: TopPriv/PDX exposure ratio vs cycle length",
		XLabel: "upsilon", YLabel: "ratio", Height: 12,
	}
	byK := map[int][]RatioPoint{}
	var ks []int
	for _, p := range points {
		if _, ok := byK[p.K]; !ok {
			ks = append(ks, p.K)
		}
		byK[p.K] = append(byK[p.K], p)
	}
	sort.Ints(ks)
	for _, k := range ks {
		s := Series{Label: ModelName(k)}
		for _, p := range byK[k] {
			if p.Queries == 0 || p.PDX == 0 {
				continue
			}
			// Drop the degenerate small-K points (PDX exposure clamped
			// near zero blows the ratio up) so the paper-shape region
			// stays readable.
			if p.Ratio > 3 {
				continue
			}
			s.Points = append(s.Points, [2]float64{float64(p.Upsilon), p.Ratio})
		}
		if len(s.Points) > 0 {
			chart.Series = append(chart.Series, s)
		}
	}
	return chart
}
