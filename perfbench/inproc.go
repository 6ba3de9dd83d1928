package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"ctxsearch"
	"ctxsearch/internal/bitset"
	"ctxsearch/internal/corpus"
	"ctxsearch/internal/eval"
	"ctxsearch/internal/index"
	"ctxsearch/internal/ontology"
	"ctxsearch/internal/server"
	"ctxsearch/internal/store"
)

// config is the configuration `ctxsearch` runs with under the flags the
// benchmark passes (defaults otherwise).
func config(papers, terms int) ctxsearch.Config {
	cfg := ctxsearch.DefaultConfig()
	cfg.Seed, cfg.Papers, cfg.OntologyTerms = corpusSeed, papers, terms
	cfg.TopKWorkers = 1
	return cfg
}

// generate regenerates the synthetic ontology and corpus exactly as
// `ctxsearch` does when no -corpus or -obo file is given.
func generate(papers, terms int) (*ontology.Ontology, *corpus.Corpus, error) {
	cfg := config(papers, terms)
	o, err := ontology.Generate(ontology.GenConfig{
		Seed: cfg.Seed, NumTerms: cfg.OntologyTerms, MaxDepth: cfg.MaxDepth, SecondParentProb: 0.12,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("generating ontology: %w", err)
	}
	gcfg := corpus.DefaultGenConfig(cfg.Papers)
	gcfg.Seed = cfg.Seed
	c, err := corpus.Generate(o, gcfg)
	if err != nil {
		return nil, nil, fmt.Errorf("generating corpus: %w", err)
	}
	return o, c, nil
}

func millis(d time.Duration) metric { return metric{ms(d), "ms"} }

// inProc is a state opened in-process the way `serve` opens it, with a
// single-engine server over it: the reference the served answers are
// compared with, and what the traced run times.
type inProc struct {
	mapped *store.Mapped
	sys    *ctxsearch.System
	cs     *ctxsearch.ContextSet
	matrix *ctxsearch.Matrix
	parts  *index.Parts
	eng    *ctxsearch.Engine
	srv    *server.Server
}

// openInProc opens the state at path, recording the cold-start layers.
func openInProc(path string, o *ontology.Ontology, c *corpus.Corpus, papers, terms int, layers map[string]metric) (*inProc, error) {
	t0 := time.Now()
	mapped, err := store.Open(path, o)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", path, err)
	}
	ip := &inProc{mapped: mapped}
	ok := false
	defer func() {
		if !ok {
			ip.close()
		}
	}()
	if ip.cs, err = mapped.ContextSet(); err != nil {
		return nil, err
	}
	if ip.matrix, err = mapped.Matrix("text"); err != nil {
		return nil, err
	}
	if ip.parts, err = mapped.IndexParts(); err != nil {
		return nil, err
	}
	if ip.parts == nil {
		return nil, fmt.Errorf("%s carries no text index", path)
	}
	df, err := mapped.DF()
	if err != nil {
		return nil, err
	}
	layers["store.open_ms"] = millis(time.Since(t0))
	t1 := time.Now()
	if ip.sys, err = ctxsearch.NewFrozenSystem(o, c, ip.parts, df, config(papers, terms)); err != nil {
		return nil, err
	}
	layers["ctxsearch.bind_ms"] = millis(time.Since(t1))
	t2 := time.Now()
	ip.eng = ip.sys.EngineFrozen(ip.cs, ip.matrix)
	layers["search.engine_new_ms"] = millis(time.Since(t2))
	// No query deadline: the reference is never timed, and its first
	// boolean queries pay for lazily analysed papers.
	ip.srv = server.NewPending(server.Config{CacheEntries: -1, QueryTimeout: -1})
	ip.srv.SetReadyMapped(ip.sys, ip.cs, ip.matrix, ip.eng, nil)
	ok = true
	return ip, nil
}

// serve answers one GET path through the in-process server.
func (ip *inProc) serve(path string) (int, []byte) {
	rec := httptest.NewRecorder()
	ip.srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.Bytes()
}

// boolFirst times the first boolean query after bind that reaches the
// index (its contexts are non-empty). On a mapped state it pays for the
// per-paper features the frozen analyzer computes lazily.
func (ip *inProc) boolFirst(layers map[string]metric, qs []eval.Query) {
	ctx := context.Background()
	opts := ctxsearch.SearchOptions{Limit: 10}
	for _, q := range qs {
		w := plainWords(q.Text)
		if len(w) < 2 {
			continue
		}
		bq := w[0] + " AND " + w[1]
		if ctxs, err := ip.eng.SelectContextsContext(ctx, bq, opts); err != nil || len(ctxs) == 0 {
			continue
		}
		t0 := time.Now()
		_, _ = ip.eng.SearchBooleanContext(ctx, bq, opts)
		layers["index.boolean_first_ms"] = millis(time.Since(t0))
		return
	}
}

// deepQueries keeps the queries whose selected contexts hold at least min
// papers. Deep pages of such a query are full on every shard, so a
// request's cost follows its offset rather than how many papers its query
// happens to match.
func (ip *inProc) deepQueries(qs []eval.Query, min int) []eval.Query {
	var out []eval.Query
	for _, q := range qs {
		ctxs, err := ip.eng.SelectContextsContext(context.Background(), q.Text, ctxsearch.SearchOptions{})
		if err != nil {
			continue
		}
		var union bitset.Set
		for _, c := range ctxs {
			union.UnionWith(ip.cs.PaperBitset(c.Context))
		}
		if union.Count() >= min {
			out = append(out, q)
		}
	}
	return out
}

func (ip *inProc) close() {
	if ip.srv != nil {
		_ = ip.srv.Close()
	}
	_ = ip.mapped.Close()
}
