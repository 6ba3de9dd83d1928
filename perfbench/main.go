// Command perfbench is ctxsearch's end-to-end benchmark. One run drives one
// seeded workload against real ctxsearch processes built from the checkout,
// checks every answer, and prints one JSON result line as the last line of
// its standard output. With -trace 1 the run also opens the same state
// in-process, times the calls into each layer, and prints the per-layer
// metrics instead of the end-to-end ones.
//
// Run it from the repository root through the wrapper, which builds the
// binaries first:
//
//	bash perfbench/run.sh --workload page10 --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// shape is the serving topology a workload runs against.
type shape int

const (
	single      shape = iota // one `serve` process
	coordinator              // `serve -shard-urls` over shardCount `shard` processes
)

// shardCount is the number of shard processes behind the deep-pages
// coordinator.
const shardCount = 2

// shardProcs is the GOMAXPROCS of each shard process: the host's CPUs
// shared out among the shards.
func shardProcs() int { return max(1, runtime.NumCPU()/shardCount) }

// workload is one traffic mix. The why of each is recorded in BENCHMARK.json.
type workload struct {
	name  string
	shape shape
	limit int
	// pages > 0 draws each request's offset uniformly from pages
	// 0..pages-1 of size limit; 0 keeps every request at offset 0.
	pages int
	// boolEvery > 0 makes one request in boolEvery a boolean query.
	boolEvery int
	// rate is the open-loop arrival rate in requests per second: about a
	// third of the closed-loop capacity measured at the commit that
	// defined the benchmark, kept constant so that every commit sees the
	// same offered load. At half capacity, the 20-30% capacity swings that
	// CPU steal causes on a shared 2-CPU host pushed the queue toward
	// saturation and made tail latency unrepeatable.
	rate float64
	// openShare is the share of -seconds given to the open-loop phase; the
	// closed-loop phase takes the rest.
	openShare float64
	// traceRequests is how many distinct requests the traced run times.
	traceRequests int
}

// page100 gives the closed loop 60% of the run: its throughput moved with
// host speed more than its open-loop latency did, and a longer closed loop
// averages over more of the host's swings. The other workloads give the
// open loop 60%, because their tails need the samples.
var workloads = []workload{
	{name: "page10", shape: single, limit: 10, boolEvery: 4, rate: 170, openShare: 0.6, traceRequests: 200},
	{name: "page100", shape: single, limit: 100, rate: 50, openShare: 0.4, traceRequests: 60},
	{name: "deep-pages", shape: coordinator, limit: 10, pages: 100, rate: 5, openShare: 0.6, traceRequests: 40},
}

// scale fixes corpus sizes and request counts. "full" is the benchmark;
// "smoke" exercises every code path in seconds for the test.
type scale struct {
	servePapers int // the state every workload serves
	buildPapers int // the build every run times for build_s
	terms       int
	queries     int // alias queries drawn per seed, one request each
	warmup      int // requests in the fixed warm-up set
	boolPool    int // distinct boolean requests, all sent in the warm-up
	sample      int // distinct requests byte-compared against the reference
	setups      int // topology launches per run; setup_s is their median
	rateScale   float64
	traceScale  float64
}

var scales = map[string]scale{
	"full":  {servePapers: 20000, buildPapers: 500, terms: 600, queries: 1000, warmup: 32, boolPool: 6, sample: 24, setups: 3, rateScale: 1, traceScale: 1},
	"smoke": {servePapers: 300, buildPapers: 200, terms: 60, queries: 40, warmup: 8, boolPool: 4, sample: 6, setups: 2, rateScale: 0.25, traceScale: 0.1},
}

// corpusSeed is the generator seed of every corpus the benchmark builds.
// The workload seed draws the queries and the offsets;
// it never changes the served data, so the 20k-paper state is built once
// per binary.
const corpusSeed = 1

// stealLimit flags runs whose host CPU-steal share exceeds it: on this kind
// of shared host, steal tracked multi-fold swings in tail latency.
const stealLimit = 0.05

type options struct {
	workload, scale   string
	seed              int64
	seconds           float64
	trace             bool
	bin, work, source string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: page10 | page100 | deep-pages")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (queries, offsets, arrival schedule)")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run (open-loop plus closed-loop phase)")
	flag.IntVar(&trace, "trace", 0, "1 = also time each layer in-process and print per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "full | smoke (tiny corpora, for the test)")
	flag.StringVar(&o.bin, "bin", "", "ctxsearch binary under test")
	flag.StringVar(&o.work, "work", ".bench_build/perfbench", "directory for cached states, logs and traces")
	flag.StringVar(&o.source, "source", "", "hash of the checkout's source, recorded in the output")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is printed on the line before the result: the environment and
// the run's own health, for whoever reads the run later.
type runInfo struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Scale        string         `json:"scale"`
	Trace        bool           `json:"trace"`
	NProc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	ShardProcs   int            `json:"shard_gomaxprocs,omitempty"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	Source       string         `json:"source_hash"`
	Binary       string         `json:"binary_sha256"`
	State        string         `json:"state"`
	StealRatio   float64        `json:"host_steal_ratio"`
	StealLimit   float64        `json:"steal_limit"`
	StealFlagged bool           `json:"steal_flagged"`
	ErrorRatio   float64        `json:"error_ratio"`
	Errors       []string       `json:"errors,omitempty"`
	Phases       map[string]any `json:"phases"`
	Breakdown    map[string]any `json:"trace_breakdown,omitempty"`
}

func run(o options) (*result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown -workload %q", o.workload)
	}
	sc, ok := scales[o.scale]
	if !ok {
		return nil, fmt.Errorf("unknown -scale %q", o.scale)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if o.bin == "" {
		return nil, fmt.Errorf("-bin is required (run through perfbench/run.sh)")
	}
	bin, err := filepath.Abs(o.bin)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	binSum, err := fileSHA256(bin)
	if err != nil {
		return nil, fmt.Errorf("hashing binary: %w", err)
	}
	flags, err := advertisedFlags(bin)
	if err != nil {
		return nil, err
	}
	steal0, err := readCPUTimes()
	if err != nil {
		return nil, err
	}

	r := &runner{o: o, w: w, sc: sc, bin: bin, flags: flags, check: newChecker()}
	r.info = runInfo{
		Workload: w.name, Seed: o.seed, Scale: o.scale, Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commitOf(), Source: o.source, Binary: binSum, StealLimit: stealLimit,
		Phases: map[string]any{},
	}
	if w.shape == coordinator {
		r.info.ShardProcs = shardProcs()
	}
	metrics, err := r.runWorkload(binSum)
	if err != nil {
		return nil, err
	}

	steal1, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	r.info.StealRatio = stealRatio(steal0, steal1)
	r.info.StealFlagged = r.info.StealRatio > stealLimit
	attempted, failed := r.check.counts()
	if attempted > 0 {
		r.info.ErrorRatio = float64(failed) / float64(attempted)
	}
	r.info.Errors = r.check.firstErrors()
	if o.trace {
		metrics["host.steal_ratio"] = metric{r.info.StealRatio, "ratio"}
	}
	if b, err := json.Marshal(map[string]any{"info": r.info}); err == nil {
		fmt.Println(string(b))
	}
	if r.info.StealFlagged {
		fmt.Fprintf(os.Stderr, "perfbench: host CPU steal %.1f%% exceeds the %.0f%% limit; treat this run's timings with care\n",
			100*r.info.StealRatio, 100*stealLimit)
	}
	printMetrics(metrics)
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// advertisedFlags returns the flag names `ctxsearch -h` lists, so the
// benchmark passes an optional flag only to a binary that has it.
func advertisedFlags(bin string) (map[string]bool, error) {
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits non-zero by design
	flags := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && strings.HasPrefix(f[0], "-") {
			flags[strings.TrimPrefix(f[0], "-")] = true
		}
	}
	if !flags["cache-entries"] || !flags["state"] {
		return nil, fmt.Errorf("%s -h does not list -state and -cache-entries; is it ctxsearch?", bin)
	}
	return flags, nil
}

// commitOf names the commit under test when the checkout is a git work
// tree; benchmark checkouts often are not, and the source hash identifies
// them instead.
func commitOf() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
