package main

import (
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ctxsearch/internal/eval"
	"ctxsearch/internal/textproc"
)

// request is one /search call.
type request struct {
	q       string
	boolean bool
	limit   int
	offset  int
}

// path is the request's URL path and query, which also keys its answer.
func (r request) path() string {
	v := url.Values{}
	v.Set("q", r.q)
	v.Set("limit", strconv.Itoa(r.limit))
	if r.offset > 0 {
		v.Set("offset", strconv.Itoa(r.offset))
	}
	if r.boolean {
		v.Set("boolean", "1")
	}
	return "/search?" + v.Encode()
}

// offsetBlock is the number of consecutive requests over which deep-page
// offsets are stratified.
const offsetBlock = 12

// makeRequests draws n requests of workload w from the alias queries qs,
// which eval.GenerateQueries already shuffled by seed. Boolean slots cycle
// through pool, so every run sends each boolean request equally often: the
// slowest of them decide the tail, and a seeded pick made it wander.
func makeRequests(w workload, qs []eval.Query, pool []request, seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	// Pages are stratified: each block of offsetBlock consecutive requests
	// takes one page, at a seeded place, from each of offsetBlock equal
	// stretches of 0..pages-1, in a seeded order. Every page is equally
	// likely, and every run's requests hold the same mix of shallow and
	// deep pages, which sets deep-pages' latency more than the query does.
	var strata []int
	out := make([]request, n)
	for i := range out {
		r := request{q: qs[i%len(qs)].Text, limit: w.limit}
		if w.pages > 0 {
			if i%offsetBlock == 0 {
				strata = rng.Perm(offsetBlock)
			}
			page := (float64(strata[i%offsetBlock]) + rng.Float64()) * float64(w.pages) / offsetBlock
			r.offset = min(int(page), w.pages-1) * w.limit
		}
		if w.boolEvery > 0 && i%w.boolEvery == w.boolEvery-1 && len(pool) > 0 {
			r = pool[(i/w.boolEvery)%len(pool)]
		}
		out[i] = r
	}
	return out
}

// booleanPool returns workload w's boolean requests: n requests alternating
// an AND of two query words and the same two words as a quoted phrase,
// taken from the fixed warm-up queries qs.
//
// The pool is fixed because boolean queries on a memory-mapped state
// analyse each candidate paper's text the first time a query touches it
// (a phrase query touches every paper holding either word). That first
// touch is set-up work: it can take seconds, holds a lock every boolean
// query needs, and a long-running server pays it once. The warm-up sends
// the whole pool, so the lazy work shows in warmup_s and the timed phases
// see the steady state.
func booleanPool(w workload, qs []eval.Query, n int) []request {
	if w.boolEvery == 0 {
		return nil
	}
	var out []request
	for _, q := range qs {
		if len(out) == n {
			break
		}
		if words := plainWords(q.Text); len(words) >= 2 {
			bq := words[0] + " AND " + words[1]
			if len(out)%2 == 1 {
				bq = `"` + words[0] + " " + words[1] + `"`
			}
			out = append(out, request{q: bq, boolean: true, limit: w.limit})
		}
	}
	return out
}

// plainWords returns the words of q that the boolean query language reads
// as plain terms: letters only, neither an operator nor a stopword.
func plainWords(q string) []string {
	var out []string
	for _, w := range strings.Fields(q) {
		switch strings.ToUpper(w) {
		case "AND", "OR", "NOT":
			continue
		}
		if !textproc.IsStopword(w) && strings.IndexFunc(w, func(c rune) bool { return c < 'a' || c > 'z' }) < 0 {
			out = append(out, w)
		}
	}
	return out
}

// loader sends requests to one front URL over at most conns connections
// and hands every answer to the checker. The open-loop phases take their
// requests from reqs in turn from the start, and the closed-loop phases
// from the middle, each from where its previous phase stopped, so that
// the open loop's requests are consecutive and hold whole offset blocks.
type loader struct {
	base             string
	client           *http.Client
	reqs             []request
	nextOpen, nextCl atomic.Int64
	check            *checker
}

func newLoader(base string, conns int, reqs []request, check *checker) *loader {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	l := &loader{base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, reqs: reqs, check: check}
	l.nextCl.Store(int64(len(reqs) / 2))
	return l
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// take returns the next request from cursor.
func (l *loader) take(cursor *atomic.Int64) request {
	return l.reqs[int(cursor.Add(1)-1)%len(l.reqs)]
}

// do sends one request; it reports whether the answer arrived with 200.
// The body's correctness is judged later by the checker.
func (l *loader) do(phase string, r request) bool {
	p := r.path()
	resp, err := l.client.Get(l.base + p)
	if err != nil {
		l.check.transportError(phase, p, err)
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		l.check.transportError(phase, p, err)
		return false
	}
	return l.check.answer(phase, r, p, resp.StatusCode, body)
}

// sequential sends reqs one after another and returns the wall time.
func (l *loader) sequential(phase string, reqs []request) time.Duration {
	t0 := time.Now()
	for _, r := range reqs {
		l.do(phase, r)
	}
	return time.Since(t0)
}

// openResult is what the open-loop phase measured.
type openResult struct {
	latency []time.Duration // per request, from when it was due to its answer
	late    []time.Duration // how late the generator sent each request
	elapsed time.Duration
}

// openLoop sends requests at a constant rate per second for dur, as wrk2
// does, through conns workers. A request waiting for a free connection keeps
// waiting while its latency clock runs, so a stall shows in the requests
// queued behind it. Evenly spaced arrivals keep the tail steadier from run
// to run than a Poisson schedule at the sample sizes a short run allows.
func (l *loader) openLoop(rate float64, dur time.Duration, conns int) openResult {
	var due []time.Duration
	for i := 0; ; i++ {
		t := time.Duration(float64(i) / rate * float64(time.Second))
		if t >= dur {
			break
		}
		due = append(due, t)
	}
	type job struct {
		r   request
		due time.Time
	}
	// Buffered to the number of sends, so the generator never blocks on
	// busy workers and its lateness measures only itself.
	jobs := make(chan job, len(due))
	res := openResult{late: make([]time.Duration, 0, len(due))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ok := l.do("open", j.r)
				lat := time.Since(j.due)
				if ok {
					mu.Lock()
					res.latency = append(res.latency, lat)
					mu.Unlock()
				}
			}
		}()
	}
	start := time.Now()
	for _, d := range due {
		at := start.Add(d)
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		res.late = append(res.late, time.Since(at))
		jobs <- job{r: l.take(&l.nextOpen), due: at}
	}
	close(jobs)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// closedLoop runs clients that each send their next request as soon as the
// previous one is answered, for dur. It returns the answered-with-200 count
// and the time until the last client finished.
func (l *loader) closedLoop(dur time.Duration, clients int) (int, time.Duration) {
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if l.do("closed", l.take(&l.nextCl)) {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(done.Load()), time.Since(start)
}

// quantile returns the q-quantile of ds by linear interpolation between
// order statistics; ds is sorted in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pos := q * float64(len(ds)-1)
	i := int(pos)
	if i+1 >= len(ds) {
		return ds[len(ds)-1]
	}
	return ds[i] + time.Duration((pos-float64(i))*float64(ds[i+1]-ds[i]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
