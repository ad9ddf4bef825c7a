package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"toppriv/internal/core"
)

// AblationRow measures one obfuscator variant over the workload: one
// of TopPriv's design choices switched off.
type AblationRow struct {
	Variant  string
	Exposure float64 // mean exposure over contributing queries
	Upsilon  float64 // mean cycle length
	GenTime  float64 // mean per-query generation seconds
	Queries  int
}

// Ablations runs the standard variant set at the given thresholds on
// the mid-grid model: full TopPriv, no backtracking (Step 3c off),
// uniform ghost words (Step 3b bias off), and fixed-length ghosts.
func Ablations(env *Env, eps1, eps2 float64, seed int64) ([]AblationRow, error) {
	variants := []struct {
		name   string
		params core.Params
	}{
		{"toppriv", core.Params{Eps1: eps1, Eps2: eps2}},
		{"no-backtrack", core.Params{Eps1: eps1, Eps2: eps2, NoBacktrack: true}},
		{"uniform-words", core.Params{Eps1: eps1, Eps2: eps2, UniformWords: true}},
		{"fixed-len-4", core.Params{Eps1: eps1, Eps2: eps2, FixedGhostLen: 4}},
	}
	k := env.Spec.Ks[len(env.Spec.Ks)/2]
	eng := env.Engines[k]
	queries := env.AnalyzedQueries()
	var rows []AblationRow
	for _, v := range variants {
		obf, err := core.NewObfuscator(eng, v.params)
		if err != nil {
			return nil, fmt.Errorf("experiment: ablation %s: %w", v.name, err)
		}
		rng := rand.New(rand.NewSource(seed))
		row := AblationRow{Variant: v.name}
		var expSum, upsSum, genSum float64
		for _, q := range queries {
			start := time.Now()
			cyc, err := obf.Obfuscate(q, rng)
			if err != nil {
				return nil, err
			}
			genSum += time.Since(start).Seconds()
			upsSum += float64(cyc.Len())
			if len(cyc.Intention) == 0 {
				continue
			}
			expSum += cyc.Exposure
			row.Queries++
		}
		row.Upsilon = upsSum / float64(len(queries))
		row.GenTime = genSum / float64(len(queries))
		if row.Queries > 0 {
			row.Exposure = expSum / float64(row.Queries)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintAblations renders the variant table.
func PrintAblations(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "== Ablations: TopPriv's design choices switched off ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\texposure%\tupsilon\tgen_ms\tqueries")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.2f\t%.2f\t%d\n",
			r.Variant, r.Exposure*100, r.Upsilon, r.GenTime*1000, r.Queries)
	}
	tw.Flush()
}
