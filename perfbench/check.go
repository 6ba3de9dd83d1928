package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"ctxsearch/internal/server"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// answerSet is every answer to one distinct request.
type answerSet struct {
	req  request
	crc  uint32
	body []byte // the first answer; later answers must equal it
	n    int    // answers equal to body
	bad  bool   // already counted as failed
}

// checker judges every answer. During the timed phases it only checksums
// bodies, so checking costs the served processes no CPU; each distinct
// body is validated once afterwards, and a seeded sample is byte-compared
// against an in-process single-engine server over the same state.
type checker struct {
	mu        sync.Mutex
	answers   map[string]*answerSet
	attempted map[string]int
	failed    map[string]int
	errs      []string
}

func newChecker() *checker {
	return &checker{answers: map[string]*answerSet{}, attempted: map[string]int{}, failed: map[string]int{}}
}

const maxErrs = 8

func (c *checker) failLocked(phase string, n int, format string, args ...any) {
	c.failed[phase] += n
	if len(c.errs) < maxErrs {
		c.errs = append(c.errs, phase+": "+fmt.Sprintf(format, args...))
	}
}

func (c *checker) transportError(phase, path string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted[phase]++
	c.failLocked(phase, 1, "%s: %v", path, err)
}

// answer records one HTTP answer; it reports false for an answer already
// known to be wrong (non-200, or different from an earlier answer to the
// same request — ctxsearch pages are deterministic).
func (c *checker) answer(phase string, r request, path string, status int, body []byte) bool {
	sum := crc32.Checksum(body, castagnoli)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted[phase]++
	if status != 200 {
		c.failLocked(phase, 1, "%s: status %d: %.200s", path, status, body)
		return false
	}
	a := c.answers[path]
	if a == nil {
		a = &answerSet{req: r, crc: sum, body: body}
		c.answers[path] = a
	} else if a.crc != sum || !bytes.Equal(a.body, body) {
		c.failLocked(phase, 1, "%s: answer differs from an earlier answer to the same request", path)
		return false
	}
	a.n++
	return true
}

// validate checks each distinct answer's JSON shape, row count and order.
// Every answer equal to an invalid body counts as failed.
func (c *checker) validate(papers int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for path, a := range c.answers {
		if err := validPage(a.req, a.body, papers); err != nil {
			a.bad = true
			c.failLocked("validate", a.n, "%s: %v", path, err)
		}
	}
}

// validPage checks one /search body: it decodes strictly into the server's
// response type, echoes the query, holds at most limit rows with unique
// in-range paper ids, and is ordered by relevancy descending with ties by
// ascending paper id.
func validPage(r request, body []byte, papers int) error {
	var resp server.SearchResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		return fmt.Errorf("bad JSON: %v", err)
	}
	if resp.Query != strings.TrimSpace(r.q) {
		return fmt.Errorf("query echoed as %q", resp.Query)
	}
	if resp.Partial {
		return fmt.Errorf("partial page")
	}
	if len(resp.Results) > r.limit {
		return fmt.Errorf("%d rows for limit %d", len(resp.Results), r.limit)
	}
	seen := map[int]bool{}
	for i, row := range resp.Results {
		if row.PaperID < 0 || row.PaperID >= papers || seen[row.PaperID] {
			return fmt.Errorf("row %d: bad or repeated paper id %d", i, row.PaperID)
		}
		seen[row.PaperID] = true
		if row.Context == "" || row.Title == "" || math.IsNaN(row.Relevancy) {
			return fmt.Errorf("row %d: missing fields", i)
		}
		if i > 0 {
			prev := resp.Results[i-1]
			if prev.Relevancy < row.Relevancy || (prev.Relevancy == row.Relevancy && prev.PaperID > row.PaperID) {
				return fmt.Errorf("rows %d and %d out of order", i-1, i)
			}
		}
	}
	return nil
}

// compareSample byte-compares a seeded sample of n distinct answers with
// what ref serves for the same request. It returns how many it compared.
func (c *checker) compareSample(seed int64, n int, ref func(path string) (int, []byte)) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	paths := make([]string, 0, len(c.answers))
	for p, a := range c.answers {
		if !a.bad {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	rand.New(rand.NewSource(seed)).Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	if len(paths) > n {
		paths = paths[:n]
	}
	for _, p := range paths {
		a := c.answers[p]
		status, want := ref(p)
		if status != 200 || !bytes.Equal(a.body, want) {
			c.failLocked("reference", a.n, "%s: served answer differs from the in-process single engine (status %d)", p, status)
		}
	}
	return len(paths)
}

// note records a failure found outside any HTTP answer (a trace check).
func (c *checker) note(phase string, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted[phase]++
	c.failLocked(phase, 1, format, args...)
}

// pass records a check outside any HTTP answer that succeeded.
func (c *checker) pass(phase string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted[phase]++
}

func (c *checker) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.attempted {
		attempted += n
	}
	for _, n := range c.failed {
		failed += n
	}
	return attempted, failed
}

func (c *checker) phaseCounts() map[string][2]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[string][2]int{}
	for p, n := range c.attempted {
		out[p] = [2]int{n, c.failed[p]}
	}
	for p, n := range c.failed {
		if _, ok := c.attempted[p]; !ok {
			out[p] = [2]int{0, n}
		}
	}
	return out
}

func (c *checker) firstErrors() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.errs...)
}
