package experiment

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"toppriv/internal/baseline"
	"toppriv/internal/core"
	"toppriv/internal/corpus"
	"toppriv/internal/eval"
	"toppriv/internal/vsm"
)

// EffectivenessRow reports standard IR metrics for one retrieval run
// against the synthetic relevance judgments.
type EffectivenessRow struct {
	Scheme  string
	Metrics eval.RunMetrics
}

// Effectiveness measures end-user retrieval effectiveness under each
// scheme against ground-truth qrels: the unprotected engine (ceiling),
// TopPriv (genuine query submitted verbatim in its cycle), and
// canonical substitution (the engine never sees the genuine query).
// This is the quantitative version of the paper's §II precision-recall
// criticism of query-substitution schemes.
func Effectiveness(env *Env, seed int64) ([]EffectivenessRow, error) {
	engine, err := vsm.NewEngine(env.Index, env.An, vsm.Cosine)
	if err != nil {
		return nil, err
	}
	qrels, err := eval.SyntheticQrels(env.Corpus, env.Queries, 0.4, 0.4, env.An)
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

	plain := make(map[int][]corpus.DocID)
	topp := make(map[int][]corpus.DocID)
	sub := make(map[int][]corpus.DocID)
	const k = 10
	for _, q := range env.Queries {
		var terms []string
		for _, w := range q.Terms {
			if term, ok := env.An.AnalyzeTerm(w); ok {
				terms = append(terms, term)
			}
		}
		if len(terms) == 0 {
			continue
		}
		cyc, err := obf.Obfuscate(terms, rng)
		if err != nil {
			return nil, err
		}
		group, chosen, err := canon.Substitute(terms, rng)
		if err != nil {
			return nil, err
		}
		resps, err := engine.SearchBatch(context.Background(), []vsm.Request{
			{Terms: terms, K: k},
			{Terms: cyc.UserQuery(), K: k},
			{Terms: group[chosen], K: k},
		})
		if err != nil {
			return nil, err
		}
		plain[q.ID] = docIDs(resps[0].Hits)
		topp[q.ID] = docIDs(resps[1].Hits)
		sub[q.ID] = docIDs(resps[2].Hits)
	}
	return []EffectivenessRow{
		{Scheme: "plain", Metrics: eval.Evaluate(plain, qrels)},
		{Scheme: "toppriv", Metrics: eval.Evaluate(topp, qrels)},
		{Scheme: "canonical-substitution", Metrics: eval.Evaluate(sub, qrels)},
	}, nil
}

func docIDs(results []vsm.Result) []corpus.DocID {
	out := make([]corpus.DocID, len(results))
	for i, r := range results {
		out[i] = r.Doc
	}
	return out
}

// PrintEffectiveness renders the metrics table.
func PrintEffectiveness(w io.Writer, rows []EffectivenessRow) {
	fmt.Fprintln(w, "== Retrieval effectiveness vs synthetic qrels ==")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tP@10\tR@10\tMAP\tnDCG@10\tqueries")
	for _, r := range rows {
		m := r.Metrics
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%d\n",
			r.Scheme, m.PrecisionAt10, m.RecallAt10, m.MAP, m.NDCGAt10, m.Queries)
	}
	tw.Flush()
}
