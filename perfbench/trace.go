package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"ctxsearch"
	"ctxsearch/internal/bitset"
	"ctxsearch/internal/index"
	"ctxsearch/internal/server"
	"ctxsearch/internal/shard"
)

// span is one timed call, recorded by the benchmark around a call into a
// layer's public function.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int           // index of the enclosing span; -1 for a root
	req        int           // request id
}

// recorder keeps spans in memory; it is written out when the run ends.
// Used from one goroutine.
type recorder struct {
	epoch time.Time
	on    bool
	spans []span
}

func (rc *recorder) begin(name string, parent, req int) int {
	if !rc.on {
		return -1
	}
	rc.spans = append(rc.spans, span{name: name, start: time.Since(rc.epoch), parent: parent, req: req})
	return len(rc.spans) - 1
}

func (rc *recorder) end(id int) {
	if id >= 0 {
		rc.spans[id].end = time.Since(rc.epoch)
	}
}

// add records a span timed elsewhere (a concurrent shard hop).
func (rc *recorder) add(name string, parent, req int, start, end time.Time) {
	if rc.on {
		rc.spans = append(rc.spans, span{name: name, start: start.Sub(rc.epoch), end: end.Sub(rc.epoch), parent: parent, req: req})
	}
}

// layerTotals sums each span name's duration and self time (duration minus
// the time its child spans cover; children never overlap one another).
type layerTotals struct {
	n         int
	dur, self time.Duration
}

func (rc *recorder) totals() map[string]*layerTotals {
	childSum := make([]time.Duration, len(rc.spans))
	for _, s := range rc.spans {
		if s.parent >= 0 {
			childSum[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range rc.spans {
		t := out[s.name]
		if t == nil {
			t = &layerTotals{}
			out[s.name] = t
		}
		t.n++
		t.dur += s.end - s.start
		t.self += s.end - s.start - childSum[i]
	}
	return out
}

// write stores the spans as JSON lines.
func (rc *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range rc.spans {
		if err := enc.Encode(map[string]any{"name": s.name, "start_ns": s.start.Nanoseconds(), "end_ns": s.end.Nanoseconds(), "parent": s.parent, "req": s.req}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveLoopback serves h on a fresh loopback port until stop is called.
func serveLoopback(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = hs.Shutdown(context.Background())
		<-done
	}, nil
}

// fetch sends one request and returns status and body.
func fetch(client *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// tracer times one in-process state's layers over a request set.
type tracer struct {
	ip     *inProc
	rec    *recorder
	client *http.Client
	single string   // loopback URL of the in-process single-engine server
	coord  string   // loopback URL of the in-process coordinator
	shards []string // loopback URLs of the in-process shard servers
	check  *checker

	// per-request sums not held in spans
	contexts, candidates, hits, rows, bytes int
	boolReqs                                int
	merge, overhead, transport              time.Duration
	engineAlloc, snippetAlloc               uint64
	hopN, hopRows, hopBytes                 int
	hopSum, slowestSum, coordSelf           time.Duration
}

var snippetOpts = index.SnippetOptions{Window: 24, Pre: "**", Post: "**"}

// pageTimes are one page's engine, render and encode wall times.
type pageTimes struct{ engine, render, encode time.Duration }

// page runs one request through the engine, renders it the way the
// server's /search handler does, and encodes it, recording spans when the
// recorder is on. It returns the body, the engine's page and the stage
// times.
func (t *tracer) page(id int, r request) ([]byte, []ctxsearch.SearchResult, pageTimes, error) {
	rc, eng, sys := t.rec, t.ip.eng, t.ip.sys
	ctx := context.Background()
	q := strings.TrimSpace(r.q)
	opts := ctxsearch.SearchOptions{Limit: r.limit, Offset: r.offset}
	var pt pageTimes
	root := rc.begin("request", -1, id)
	e := rc.begin("search.engine", root, id)
	t0 := time.Now()
	var res []ctxsearch.SearchResult
	var err error
	if r.boolean {
		res, err = eng.SearchBooleanContext(ctx, q, opts)
	} else {
		res, err = eng.SearchContext(ctx, q, opts)
	}
	t1 := time.Now()
	rc.end(e)
	if err != nil {
		return nil, nil, pt, err
	}
	rd := rc.begin("server.render", root, id)
	rows := make([]server.SearchResult, 0, len(res))
	for _, x := range res {
		p := sys.Corpus.Paper(x.Doc)
		sn := rc.begin("index.snippet", rd, id)
		snippet := sys.Index().Snippet(x.Doc, q, snippetOpts)
		rc.end(sn)
		rows = append(rows, server.SearchResult{
			PaperID: int(x.Doc), PMID: p.PMID, Year: p.Year, Title: p.Title, Snippet: snippet,
			Relevancy: x.Relevancy, Prestige: x.Prestige, Match: x.Match,
			Context: string(x.Context), ContextName: sys.Ontology.Term(x.Context).Name,
		})
	}
	t2 := time.Now()
	rc.end(rd)
	en := rc.begin("server.encode", root, id)
	t3 := time.Now()
	body, err := json.Marshal(server.SearchResponse{Query: q, Results: rows})
	t4 := time.Now()
	rc.end(en)
	rc.end(root)
	pt = pageTimes{engine: t1.Sub(t0), render: t2.Sub(t1), encode: t4.Sub(t3)}
	return body, res, pt, err
}

// probe times, as separate calls on the same request, the stages the
// engine runs internally: context selection, the query vector and the
// index pass. The engine's remaining self time is the merge.
func (t *tracer) probe(id int, r request, pt pageTimes) error {
	rc, eng, ix := t.rec, t.ip.eng, t.ip.sys.Index()
	ctx := context.Background()
	q := strings.TrimSpace(r.q)
	opts := ctxsearch.SearchOptions{Limit: r.limit, Offset: r.offset}
	pr := rc.begin("probe", -1, id)
	t0 := time.Now()
	s := rc.begin("search.select", pr, id)
	ctxs, err := eng.SelectContextsContext(ctx, q, opts)
	rc.end(s)
	if err != nil {
		return err
	}
	stages := time.Since(t0)
	var union bitset.Set
	for _, c := range ctxs {
		union.UnionWith(t.ip.cs.PaperBitset(c.Context))
	}
	t.contexts += len(ctxs)
	t.candidates += union.Count()
	if len(ctxs) > 0 {
		var hits []index.Hit
		t1 := time.Now()
		if r.boolean {
			b := rc.begin("index.boolean", pr, id)
			pq, err := ix.ParseQuery(q)
			if err == nil {
				hits, err = ix.SearchQueryContext(ctx, pq, index.Options{WithinSet: union})
			}
			rc.end(b)
			if err != nil {
				return err
			}
			t.boolReqs++
		} else {
			v := rc.begin("corpus.query_vector", pr, id)
			qv := ix.Analyzer().QueryVector(q)
			rc.end(v)
			x := rc.begin("index.vector", pr, id)
			hits, err = ix.SearchVectorContext(ctx, qv, index.Options{WithinSet: union})
			rc.end(x)
			if err != nil {
				return err
			}
		}
		stages += time.Since(t1)
		t.hits += len(hits)
	}
	t.merge += pt.engine - stages
	rc.end(pr)
	return nil
}

// serverProbe times the same request through the in-process handler and
// over loopback, and checks that the two answers agree.
func (t *tracer) serverProbe(id int, r request) (handler time.Duration, body []byte, err error) {
	rc := t.rec
	pr := rc.begin("server-probe", -1, id)
	h := rc.begin("server.handler", pr, id)
	th := time.Now()
	status, hb := t.ip.serve(r.path())
	handler = time.Since(th)
	rc.end(h)
	l := rc.begin("server.loopback", pr, id)
	tl := time.Now()
	lstatus, lb, err := fetch(t.client, "GET", t.single+r.path(), nil)
	loop := time.Since(tl)
	rc.end(l)
	rc.end(pr)
	if err != nil {
		return 0, nil, err
	}
	t.transport += loop - handler
	if status != 200 || lstatus != 200 || !bytes.Equal(hb, lb) {
		t.check.note("trace", "%s: handler and loopback answers differ", r.path())
	}
	return handler, hb, nil
}

// allocs measures the engine call's and the snippets' heap allocation,
// outside any timed span.
func (t *tracer) allocs(r request, res []ctxsearch.SearchResult) {
	ctx := context.Background()
	q := strings.TrimSpace(r.q)
	opts := ctxsearch.SearchOptions{Limit: r.limit, Offset: r.offset}
	a0 := allocBytes()
	if r.boolean {
		_, _ = t.ip.eng.SearchBooleanContext(ctx, q, opts)
	} else {
		_, _ = t.ip.eng.SearchContext(ctx, q, opts)
	}
	a1 := allocBytes()
	for _, x := range res {
		_ = t.ip.sys.Index().Snippet(x.Doc, q, snippetOpts)
	}
	a2 := allocBytes()
	t.engineAlloc += a1 - a0
	t.snippetAlloc += a2 - a1
}

// hops times the same request through the in-process coordinator, then as
// direct POST /shard/search calls carrying the coordinator's folded paging,
// sent concurrently as the coordinator sends them.
func (t *tracer) hops(id int, r request, body []byte) error {
	tc := time.Now()
	cs := t.rec.begin("coordinator.request", -1, id)
	status, cb, err := fetch(t.client, "GET", t.coord+r.path(), nil)
	t.rec.end(cs)
	coordDur := time.Since(tc)
	if err != nil {
		return err
	}
	if status != 200 || !bytes.Equal(cb, body) {
		t.check.note("trace", "%s: coordinator page differs from the single engine's", r.path())
	} else {
		t.check.pass("trace")
	}
	so := shard.ShardOptions(ctxsearch.SearchOptions{Limit: r.limit, Offset: r.offset})
	payload, err := json.Marshal(server.ShardSearchRequest{Q: strings.TrimSpace(r.q), Boolean: r.boolean, Limit: so.Limit, Offset: so.Offset})
	if err != nil {
		return err
	}
	type hop struct {
		start, end time.Time
		status     int
		body       []byte
		err        error
	}
	hs := make([]hop, len(t.shards))
	fan := t.rec.begin("shard.fanout", -1, id)
	var wg sync.WaitGroup
	for i, u := range t.shards {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			hs[i].start = time.Now()
			hs[i].status, hs[i].body, hs[i].err = fetch(t.client, "POST", u+"/shard/search", payload)
			hs[i].end = time.Now()
		}(i, u)
	}
	wg.Wait()
	t.rec.end(fan)
	var slowest time.Duration
	for _, h := range hs {
		if h.err != nil {
			return h.err
		}
		t.rec.add("shard.hop", fan, id, h.start, h.end)
		var sr server.ShardSearchResponse
		if h.status != 200 || json.Unmarshal(h.body, &sr) != nil {
			t.check.note("trace", "%s: shard hop failed with status %d", r.path(), h.status)
			continue
		}
		d := h.end.Sub(h.start)
		slowest = max(slowest, d)
		t.hopN++
		t.hopSum += d
		t.hopRows += len(sr.Results)
		t.hopBytes += len(h.body)
	}
	t.slowestSum += slowest
	t.coordSelf += coordDur - slowest
	return nil
}

// probeTolerance is how much longer than the engine call, as a share of
// it, the probed stages may take in total before the traced run fails its
// check: beyond that, the probes no longer time what the engine runs.
const probeTolerance = 0.1

// boolProbes bounds the boolean index passes timed on a workload without
// boolean requests.
const boolProbes = 8

// booleanProbe runs the boolean index pass for q over the union of its
// selected contexts, recording a span when timed.
func (t *tracer) booleanProbe(id int, q string, timed bool) error {
	ctx := context.Background()
	ctxs, err := t.ip.eng.SelectContextsContext(ctx, q, ctxsearch.SearchOptions{})
	if err != nil {
		return err
	}
	var union bitset.Set
	for _, c := range ctxs {
		union.UnionWith(t.ip.cs.PaperBitset(c.Context))
	}
	t.rec.on = timed
	defer func() { t.rec.on = true }()
	b := t.rec.begin("index.boolean", -1, id)
	pq, err := t.ip.sys.Index().ParseQuery(q)
	if err == nil {
		_, err = t.ip.sys.Index().SearchQueryContext(ctx, pq, index.Options{WithinSet: union})
	}
	t.rec.end(b)
	return err
}

// traceLayers times each layer over reqs on the in-process state and fills
// r.layers. Every request runs untraced and traced (alternating which goes
// first) for the tracing overhead, then the probes.
func (r *runner) traceLayers(ip *inProc, reqs []request) error {
	t := &tracer{ip: ip, rec: &recorder{epoch: time.Now()}, check: r.check,
		client: &http.Client{Timeout: 30 * time.Second}}
	defer t.client.CloseIdleConnections()
	var stops []func()
	defer func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}()
	u, stop, err := serveLoopback(ip.srv)
	if err != nil {
		return err
	}
	t.single = u
	stops = append(stops, stop)
	for i := 0; i < shardCount; i++ {
		eng, _, err := shard.RangeEngineParts(ip.sys.Analyzer(), ip.parts, ip.cs, ip.matrix, ip.sys.Config().Relevancy, i, shardCount)
		if err != nil {
			return err
		}
		s := server.NewPending(server.Config{CacheEntries: -1, QueryTimeout: -1})
		s.SetReadyMapped(ip.sys, ip.cs, ip.matrix, eng, nil)
		u, stop, err := serveLoopback(s)
		if err != nil {
			return err
		}
		t.shards = append(t.shards, u)
		stops = append(stops, stop, func() { _ = s.Close() })
	}
	coord := server.NewCoordinator(t.shards, server.Config{CacheEntries: -1, QueryTimeout: -1}, server.ShardConfig{ShardTimeout: -1})
	stops = append(stops, coord.Close)
	if t.coord, stop, err = serveLoopback(coord); err != nil {
		return err
	}
	stops = append(stops, stop)

	// Warm pass: first touches of the mapped state and lazy features are
	// set-up cost, not per-request cost.
	for i, rq := range reqs {
		if _, _, _, err := t.page(i, rq); err != nil {
			return err
		}
	}
	t.rec.on = true
	var plain, traced time.Duration
	for i, rq := range reqs {
		// The handler probe runs before the pipeline on even requests and
		// after it on odd ones, so warm caches favour neither side of
		// server.overhead_us.
		var handler time.Duration
		var hbody []byte
		if i%2 == 0 {
			if handler, hbody, err = t.serverProbe(i, rq); err != nil {
				return err
			}
		}
		var body []byte
		var res []ctxsearch.SearchResult
		var pt pageTimes
		for k := 0; k < 2; k++ {
			t.rec.on = (i+k)%2 == 0
			t0 := time.Now()
			b, rs, p, err := t.page(i, rq)
			d := time.Since(t0)
			if err != nil {
				return err
			}
			if t.rec.on {
				traced += d
				body, res, pt = b, rs, p
			} else {
				plain += d
			}
		}
		t.rec.on = true
		if i%2 == 1 {
			if handler, hbody, err = t.serverProbe(i, rq); err != nil {
				return err
			}
		}
		t.overhead += handler - (pt.engine + pt.render + pt.encode)
		if !bytes.Equal(hbody, body) {
			t.check.note("trace", "%s: the traced pipeline's page differs from the server's", rq.path())
		} else {
			t.check.pass("trace")
		}
		if err := t.probe(i, rq, pt); err != nil {
			return err
		}
		t.rows += len(res)
		t.bytes += len(body)
		t.allocs(rq, res)
		if err := t.hops(i, rq, body); err != nil {
			return err
		}
	}
	// A workload without boolean requests still reports the boolean index
	// pass, timed on two-word AND forms of its first queries. Each form
	// runs once untimed first: its first run analyses the matching papers'
	// text lazily, which index.boolean_first_ms already reports.
	if t.boolReqs == 0 {
		probes := 0
		for i, rq := range reqs {
			w := plainWords(rq.q)
			if len(w) < 2 || probes == boolProbes {
				continue
			}
			probes++
			if err := t.booleanProbe(len(reqs)+i, w[0]+" AND "+w[1], false); err != nil {
				return err
			}
			if err := t.booleanProbe(len(reqs)+i, w[0]+" AND "+w[1], true); err != nil {
				return err
			}
		}
	}
	r.traceMetrics(t, len(reqs), plain, traced)
	dir := filepath.Join(r.o.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return t.rec.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.o.seed)))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceMetrics turns the tracer's spans and sums over n requests into the
// per-layer metrics, and records in the run info how the layers' self
// times add up to the traced request time.
func (r *runner) traceMetrics(t *tracer, n int, plain, traced time.Duration) {
	tot := t.rec.totals()
	get := func(name string) *layerTotals {
		if x := tot[name]; x != nil {
			return x
		}
		return &layerTotals{}
	}
	perCall := func(name string) float64 { x := get(name); return ratio(us(x.self), float64(x.n)) }
	N, rows := float64(n), float64(t.rows)
	L := r.layers
	set := func(name string, v float64, unit string) { L[name] = metric{v, unit} }
	set("search.select_us", perCall("search.select"), "us")
	set("search.merge_us", us(t.merge)/N, "us")
	set("search.engine_alloc_bytes", float64(t.engineAlloc)/N, "bytes")
	set("search.contexts_per_query", float64(t.contexts)/N, "count")
	set("corpus.query_vector_us", perCall("corpus.query_vector"), "us")
	set("index.vector_us", perCall("index.vector"), "us")
	set("index.boolean_us", perCall("index.boolean"), "us")
	set("index.candidates_per_query", float64(t.candidates)/N, "count")
	set("index.hits_per_query", float64(t.hits)/N, "count")
	set("index.rows_per_hit", ratio(rows, float64(t.hits)), "ratio")
	set("index.snippet_us_per_row", ratio(us(get("index.snippet").self), rows), "us")
	set("index.snippet_alloc_bytes_per_row", ratio(float64(t.snippetAlloc), rows), "bytes")
	set("server.render_us", us(get("server.render").self)/N, "us")
	set("server.encode_us", perCall("server.encode"), "us")
	set("server.response_bytes", float64(t.bytes)/N, "bytes")
	set("server.handler_us", perCall("server.handler"), "us")
	set("server.overhead_us", us(t.overhead)/N, "us")
	set("server.transport_us", us(t.transport)/N, "us")
	set("shard.hop_ms", ratio(ms(t.hopSum), float64(t.hopN)), "ms")
	set("shard.slowest_hop_ms", ms(t.slowestSum)/N, "ms")
	set("shard.rows_per_hop", ratio(float64(t.hopRows), float64(t.hopN)), "count")
	set("shard.bytes_per_hop", ratio(float64(t.hopBytes), float64(t.hopN)), "bytes")
	set("shard.rendered_rows_per_page_row", ratio(float64(t.hopRows), rows), "ratio")
	set("server.coord_self_ms", ms(t.coordSelf)/N, "ms")
	set("trace.overhead_ratio", ratio(float64(traced), float64(plain))-1, "ratio")
	set("trace.request_us", us(get("request").dur)/N, "us")

	// The engine runs selection, the query vector and the index pass
	// internally; the probes time them as separate calls. The merge is what
	// remains of the engine span, so it is a residual, not a measurement:
	// the breakdown counts as accounted for only the parts timed directly,
	// and the probes must not take longer than the engine call they stand
	// in for.
	index := get("index.vector").self
	if t.boolReqs > 0 {
		index += get("index.boolean").self
	}
	probed := get("search.select").self + get("corpus.query_vector").self + index
	engine := get("search.engine").dur
	if float64(probed) > (1+probeTolerance)*float64(engine) {
		t.check.note("trace", "the probed engine stages took %.0f us per request, more than the %.0f us engine call",
			us(probed)/N, us(engine)/N)
	} else {
		t.check.pass("trace")
	}
	parts := map[string]float64{
		"select":       us(get("search.select").self) / N,
		"query_vector": us(get("corpus.query_vector").self) / N,
		"index":        us(index) / N,
		"snippets":     us(get("index.snippet").self) / N,
		"render_self":  us(get("server.render").self) / N,
		"encode":       us(get("server.encode").self) / N,
		"request_self": us(get("request").self) / N,
	}
	req := us(get("request").dur) / N
	var sum float64
	shares := map[string]float64{}
	for k, v := range parts {
		sum += v
		shares[k] = ratio(v, req)
	}
	r.info.Breakdown = map[string]any{
		"requests": n, "request_us": req, "parts_us": parts, "shares": shares,
		"engine_us": us(engine) / N, "merge_residual_us": us(t.merge) / N,
		"engine_probed_ratio": ratio(float64(probed), float64(engine)),
		"accounted_ratio":     ratio(sum, req),
	}
}
