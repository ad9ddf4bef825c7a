package experiment

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"toppriv/internal/baseline"
	"toppriv/internal/core"
	"toppriv/internal/vsm"
)

// QualityRow reports how faithfully a protection scheme preserves the
// results of the genuine query: the mean overlap@k between the results
// the user sees under the scheme and the unprotected results. The
// paper's usability argument (§II, §IV-E): TopPriv and PDX preserve the
// exact results (their genuine terms reach the engine untouched), while
// Murugesan–Clifton canonical substitution "affects the precision-
// recall characteristics intended by the search engine designer".
type QualityRow struct {
	Scheme string
	// Overlap is mean |results ∩ plain| / k over the workload.
	Overlap float64
	// Queries is the number of workload queries measured.
	Queries int
}

// RetrievalQuality measures result fidelity for TopPriv, PDX (genuine
// terms only, modelling its encrypted protocol's effect) and canonical
// substitution, at the given result depth k.
func RetrievalQuality(env *Env, k int, seed int64) ([]QualityRow, error) {
	engine, err := vsm.NewEngine(env.Index, env.An, vsm.Cosine)
	if err != nil {
		return nil, err
	}
	kMid := env.Spec.Ks[len(env.Spec.Ks)/2]
	eng := env.Engines[kMid]
	obf, err := core.NewObfuscator(eng, core.Params{Eps1: 0.05, Eps2: 0.01})
	if err != nil {
		return nil, err
	}
	canon, err := baseline.NewCanonical(eng, 4, 8, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	queries := env.AnalyzedQueries()

	var topprivSum, pdxSum, canonSum float64
	n := 0
	ctx := context.Background()
	for _, q := range queries {
		resp, err := engine.SearchRequest(ctx, vsm.Request{Terms: q, K: k})
		if err != nil {
			return nil, err
		}
		plain := resp.Hits
		if len(plain) == 0 {
			continue
		}
		n++
		plainSet := make(map[int]bool, len(plain))
		for _, r := range plain {
			plainSet[int(r.Doc)] = true
		}
		cyc, err := obf.Obfuscate(q, rng)
		if err != nil {
			return nil, err
		}
		group, chosen, err := canon.Substitute(q, rng)
		if err != nil {
			return nil, err
		}
		resps, err := engine.SearchBatch(ctx, []vsm.Request{
			// TopPriv: the genuine query is submitted verbatim inside the
			// cycle; the client keeps exactly its results.
			{Terms: cyc.UserQuery(), K: k},
			// PDX: with the scheme's homomorphic protocol the engine scores
			// only the genuine terms, so fidelity is that of the genuine
			// query — identical by construction.
			{Terms: q, K: k},
			// Canonical substitution: the engine sees the canonical query,
			// never the genuine one.
			{Terms: group[chosen], K: k},
		})
		if err != nil {
			return nil, err
		}
		topprivSum += overlap(resps[0].Hits, plainSet)
		pdxSum += overlap(resps[1].Hits, plainSet)
		canonSum += overlap(resps[2].Hits, plainSet)
	}
	if n == 0 {
		return nil, fmt.Errorf("experiment: no queries with results")
	}
	return []QualityRow{
		{Scheme: "toppriv", Overlap: topprivSum / float64(n), Queries: n},
		{Scheme: "pdx", Overlap: pdxSum / float64(n), Queries: n},
		{Scheme: "canonical-substitution", Overlap: canonSum / float64(n), Queries: n},
	}, nil
}

func overlap(results []vsm.Result, plainSet map[int]bool) float64 {
	if len(plainSet) == 0 {
		return 0
	}
	hits := 0
	for _, r := range results {
		if plainSet[int(r.Doc)] {
			hits++
		}
	}
	return float64(hits) / float64(len(plainSet))
}

// PrintQuality renders the fidelity table.
func PrintQuality(w io.Writer, rows []QualityRow, k int) {
	fmt.Fprintf(w, "== Retrieval fidelity: overlap@%d with unprotected results ==\n", k)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\toverlap\tqueries")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%d\n", r.Scheme, r.Overlap, r.Queries)
	}
	tw.Flush()
}
