package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ctxsearch/internal/eval"
)

// rounds is the number of open-loop/closed-loop rounds the timed phases
// alternate through.
const rounds = 4

// roundStealLimit is the host CPU-steal share above which a round is sent
// again. Quiet stretches of the host stole 0.1-1.5%.
const roundStealLimit = 0.02

// warmupSeed draws the warm-up set, which is the same on every run so that
// warmup_s compares runs, not query mixes.
const warmupSeed = 7919

// runner carries one run's settings and results.
type runner struct {
	o      options
	w      workload
	sc     scale
	bin    string
	flags  map[string]bool
	check  *checker
	info   runInfo
	layers map[string]metric // per-layer metrics, filled in traced runs
}

func (r *runner) logDir() string { return filepath.Join(r.o.work, "logs") }
func (r *runner) runDir() string { return filepath.Join(r.o.work, "run") }

// runWorkload runs the workload's build, set-up, warm-up, open-loop and
// closed-loop phases, checks the answers and, in a traced run, times the
// layers in-process. It returns the metrics the run prints.
func (r *runner) runWorkload(binSum string) (map[string]metric, error) {
	for _, d := range []string{r.logDir(), r.runDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	r.layers = map[string]metric{}
	nproc := runtime.NumCPU()

	statePath, err := r.servingState(binSum)
	if err != nil {
		return nil, err
	}
	// Every run times a small build, so that a change in build or save cost
	// shows as build_s next to the open and bind cost it may trade against.
	// The traced run reports its stages.
	buildPath := filepath.Join(r.runDir(), "build.state")
	_ = os.Remove(buildPath)
	b, err := r.timedBuild(r.sc.buildPapers, buildPath)
	if err != nil {
		return nil, err
	}
	_ = os.Remove(buildPath)
	buildS := b.wall
	for stage, name := range buildLayers {
		r.layers[name] = metric{b.stages[stage].Seconds(), "s"}
	}
	r.layers["build.generate_s"] = metric{b.wall - b.stages["total"].Seconds(), "s"}
	st, err := os.Stat(statePath)
	if err != nil {
		return nil, err
	}
	papers := r.sc.servePapers
	stateMB := float64(st.Size()) / (1 << 20)
	r.info.State = fmt.Sprintf("%s (%d papers, %d terms, %.1f MiB)", filepath.Base(statePath), papers, r.sc.terms, stateMB)

	// The queries come from the served corpus, regenerated in-process the
	// way `serve` regenerates it.
	t0 := time.Now()
	onto, c, err := generate(papers, r.sc.terms)
	if err != nil {
		return nil, err
	}
	r.layers["setup.corpus_s"] = metric{since(t0), "s"}
	// The in-process single engine over the same state is the reference
	// the answers are compared with; deep-pages also uses it to pick its
	// queries.
	ip, err := openInProc(statePath, onto, c, papers, r.sc.terms, r.layers)
	if err != nil {
		return nil, err
	}
	defer ip.close()
	qs := eval.GenerateQueries(onto, c, queryConfig(r.o.seed, r.sc.queries))
	warmQs := eval.GenerateQueries(onto, c, queryConfig(warmupSeed, r.sc.queries))
	if r.w.pages > 0 {
		qs, warmQs = ip.deepQueries(qs, papers/8), ip.deepQueries(warmQs, papers/8)
	}
	if len(qs) < r.sc.warmup || len(warmQs) < r.sc.warmup {
		return nil, fmt.Errorf("too few queries generated for seed %d", r.o.seed)
	}
	r.info.Phases["distinct_requests"] = len(qs)
	pool := booleanPool(r.w, warmQs, r.sc.boolPool)
	// One request per query: a long list keeps the mix of cheap and
	// expensive queries about the same from seed to seed. The timed phases
	// cycle through it.
	reqs := makeRequests(r.w, qs, pool, r.o.seed, len(qs))
	warm := append(append([]request{}, pool...), makeRequests(r.w, warmQs, nil, warmupSeed, max(0, r.sc.warmup-len(pool)))...)

	// The state's pages are read once before any launch, so that set-up
	// and warm-up find them in the page cache on every run, whatever ran
	// on the host before.
	if err := readAll(statePath); err != nil {
		return nil, err
	}

	// Set-up and warm-up: launch the topology several times and warm each
	// launch up with the same fixed set; setup_s and warmup_s are the
	// medians, so that one slow launch or warm-up does not decide the run.
	// Garbage is collected before each warm-up and again before the timed
	// phases, so that neither starts with a different heap from run to run.
	var topo *topology
	var setups, warms []float64
	stopped := true
	defer func() {
		if !stopped {
			topo.stop()
		}
	}()
	for k := 0; k < r.sc.setups; k++ {
		t0 := time.Now()
		topo, err = r.launch(statePath, papers)
		if err != nil {
			return nil, err
		}
		stopped = false
		setups = append(setups, since(t0))
		if err := topo.collectGarbage(); err != nil {
			return nil, err
		}
		wl := newLoader(topo.front.url, 1, nil, r.check)
		warms = append(warms, wl.sequential("warmup", warm).Seconds())
		wl.close()
		if k < r.sc.setups-1 {
			topo.stop()
			stopped = true
		}
	}
	if err := topo.collectGarbage(); err != nil {
		return nil, err
	}

	// The timed phases alternate: rounds of an open-loop slice then a
	// closed-loop slice. Both phases then sample the host over the whole
	// run, so a stretch of host contention slows a part of each rather than
	// all of one. A round during which the host stole more than
	// roundStealLimit of the CPU time is sent again, once per run at most:
	// on a shared host, a steal episode made a whole run's tail latency
	// three times slower.
	ld := newLoader(topo.front.url, nproc, reqs, r.check)
	resumeGC := holdGC()
	defer resumeGC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rate := r.w.rate * r.sc.rateScale
	openDur := time.Duration(r.w.openShare * r.o.seconds * float64(time.Second) / rounds)
	closedDur := time.Duration((1 - r.w.openShare) * r.o.seconds * float64(time.Second) / rounds)
	var open openResult
	var closedN int
	var closedEl, cpu time.Duration
	var stolen []float64
	for k := 0; k < rounds; k++ {
		steal0, err := readCPUTimes()
		if err != nil {
			return nil, err
		}
		cpu0, err := procsCPU(topo.pids())
		if err != nil {
			return nil, err
		}
		nextOpen, nextCl := ld.nextOpen.Load(), ld.nextCl.Load()
		o := ld.openLoop(rate, openDur, nproc)
		n, el := ld.closedLoop(closedDur, nproc)
		cpu1, err := procsCPU(topo.pids())
		if err != nil {
			return nil, err
		}
		steal1, err := readCPUTimes()
		if err != nil {
			return nil, err
		}
		if s := stealRatio(steal0, steal1); s > roundStealLimit && len(stolen) == 0 {
			// The round is sent again with the same requests.
			stolen = append(stolen, s)
			ld.nextOpen.Store(nextOpen)
			ld.nextCl.Store(nextCl)
			k--
			continue
		}
		open.latency = append(open.latency, o.latency...)
		open.late = append(open.late, o.late...)
		open.elapsed += o.elapsed
		closedN, closedEl, cpu = closedN+n, closedEl+el, cpu+cpu1-cpu0
	}
	resumeGC()
	runtime.ReadMemStats(&ms1)
	r.info.Phases["harness"] = map[string]any{"heap_mb": float64(ms0.HeapAlloc) / (1 << 20), "timed_gcs": ms1.NumGC - ms0.NumGC}
	r.info.Phases["rounds_sent_again"] = stolen
	var rss int64
	for _, pid := range topo.pids() {
		b, err := procPeakRSS(pid)
		if err != nil {
			return nil, err
		}
		rss += b
	}
	ld.close()
	topo.stop()
	stopped = true

	completed := len(open.latency) + closedN
	if len(open.latency) == 0 || closedN == 0 {
		return nil, fmt.Errorf("no request succeeded (first errors: %v)", r.check.firstErrors())
	}
	lateP99 := ms(quantile(open.late, 0.99))
	nLat := len(open.latency)
	// The tail is the 90th percentile. In a 20-second run deep-pages sends
	// 60 open-loop requests, so its p90 already rests on the six slowest;
	// page100 sends 400 and page10 about 2,000. A 99th percentile of
	// page100's 400 would be the fourth-worst request, and on a host with
	// CPU steal it varied more than twofold between runs.
	p50, p90 := ms(quantile(open.latency, 0.5)), ms(quantile(open.latency, 0.9))
	r.info.Phases["open_loop"] = map[string]any{
		"rate_per_s": rate, "sent": len(open.late), "answered": nLat, "seconds": open.elapsed.Seconds(),
		"generator_late_p99_ms": lateP99,
	}
	r.info.Phases["closed_loop"] = map[string]any{"clients": nproc, "answered": closedN, "seconds": closedEl.Seconds()}
	r.info.Phases["setup_s"] = setups
	r.info.Phases["warmup_s"] = warms
	r.layers["loadgen.late_p99_ms"] = metric{lateP99, "ms"}

	// Checks: every distinct answer is validated; a seeded sample is
	// byte-compared against an in-process single engine over the same
	// state, which is also what the traced run times.
	r.check.validate(papers)
	if r.o.trace {
		ip.boolFirst(r.layers, qs)
	}
	r.info.Phases["reference_compared"] = r.check.compareSample(r.o.seed, r.sc.sample, ip.serve)

	if r.o.trace {
		n := int(math.Max(4, math.Round(float64(r.w.traceRequests)*r.sc.traceScale)))
		if err := r.traceLayers(ip, reqs[:min(n, len(reqs))]); err != nil {
			return nil, err
		}
		r.info.Phases["answers"] = r.check.phaseCounts()
		return r.layers, nil
	}
	r.info.Phases["answers"] = r.check.phaseCounts()
	return map[string]metric{
		"setup_s":        {median(setups), "s"},
		"warmup_s":       {median(warms), "s"},
		"latency_p50_ms": {p50, "ms"},
		"latency_p90_ms": {p90, "ms"},
		"throughput_qps": {float64(closedN) / closedEl.Seconds(), "1/s"},
		"cpu_ms_per_req": {ms(cpu) / float64(completed), "ms"},
		"rss_mb":         {float64(rss) / (1 << 20), "MiB"},
		"build_s":        {buildS, "s"},
		"state_mb":       {stateMB, "MiB"},
	}, nil
}

func queryConfig(seed int64, n int) eval.QueryGenConfig {
	cfg := eval.DefaultQueryGenConfig()
	cfg.Seed, cfg.NumQueries = seed, n
	return cfg
}

// buildArgs are the flags of `ctxsearch build` for a state of papers
// papers at path. -state-format is passed only to a binary that lists it.
func (r *runner) buildArgs(papers int, path string) []string {
	args := []string{"-papers", strconv.Itoa(papers), "-terms", strconv.Itoa(r.sc.terms),
		"-seed", strconv.Itoa(corpusSeed), "-state", path}
	if r.flags["state-format"] {
		args = append(args, "-state-format", "v5")
	}
	return append(args, "build")
}

// servingState returns the large serving state, building it with this
// binary when no state written by the same binary is cached.
func (r *runner) servingState(binSum string) (string, error) {
	dir := filepath.Join(r.o.work, "state")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-p%d-t%d-s%d.state", binSum[:16], r.sc.servePapers, r.sc.terms, corpusSeed))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	tmp := path + ".tmp"
	_ = os.Remove(tmp)
	fmt.Fprintf(os.Stderr, "perfbench: building the %d-paper serving state (once per binary)\n", r.sc.servePapers)
	if _, err := r.runBuild(r.buildArgs(r.sc.servePapers, tmp), "state-build"); err != nil {
		return "", err
	}
	return path, os.Rename(tmp, path)
}

// buildLayers maps the stages `ctxsearch -v build` prints to the build.*
// per-layer metrics.
var buildLayers = map[string]string{
	"analyze":         "build.analyze_s",
	"tfidf-warm":      "build.tfidf_warm_s",
	"index":           "build.index_s",
	"posindex":        "build.posindex_s",
	"contextset-text": "build.contextset_s",
	"score-text":      "build.score_s",
	"state-save":      "build.save_s",
}

// build is one timed `ctxsearch build`: its wall time in seconds and the
// stage timings it printed.
type build struct {
	wall   float64
	stages map[string]time.Duration
}

// timedBuild runs `ctxsearch build` for a state of papers papers at path.
// When the binary lists -v, the build prints its stage timings, which
// become the build.* layers; build.generate_s is the wall time outside
// those stages (process start, ontology and corpus generation).
func (r *runner) timedBuild(papers int, path string) (build, error) {
	args := r.buildArgs(papers, path)
	if r.flags["v"] {
		args = append([]string{"-v"}, args...)
	}
	t0 := time.Now()
	out, err := r.runBuild(args, "build")
	if err != nil {
		return build{}, err
	}
	return build{wall: since(t0), stages: buildStages(out)}, nil
}

// buildStages parses the lines that follow "offline build stages:" in the
// output of `ctxsearch -v build`: a stage name, then its duration.
func buildStages(out []byte) map[string]time.Duration {
	stages := map[string]time.Duration{}
	in := false
	for _, line := range strings.Split(string(out), "\n") {
		if strings.TrimSpace(line) == "offline build stages:" {
			in = true
			continue
		}
		if f := strings.Fields(line); in && len(f) >= 2 {
			if d, err := time.ParseDuration(f[1]); err == nil {
				stages[f[0]] = d
			}
		}
	}
	return stages
}

// runBuild runs the binary with args, logging its output under name, and
// returns its standard output.
func (r *runner) runBuild(args []string, name string) ([]byte, error) {
	lf, err := os.Create(filepath.Join(r.logDir(), name+".log"))
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	var stdout bytes.Buffer
	cmd := exec.Command(r.bin, args...)
	cmd.Stdout, cmd.Stderr = io.MultiWriter(lf, &stdout), lf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("ctxsearch %s: %w (see %s)", strings.Join(args, " "), err, lf.Name())
	}
	return stdout.Bytes(), nil
}

// launch starts the workload's topology over state and waits until every
// process answers /readyz with 200.
func (r *runner) launch(state string, papers int) (*topology, error) {
	listen := []string{"-cache-entries", "0", "-addr", "127.0.0.1:0"}
	if r.flags["debug-addr"] {
		listen = append(listen, "-debug-addr", "127.0.0.1:0")
	}
	common := append([]string{"-papers", strconv.Itoa(papers), "-terms", strconv.Itoa(r.sc.terms),
		"-seed", strconv.Itoa(corpusSeed), "-state", state}, listen...)
	t := &topology{}
	start := func(name string, args, env []string) (*proc, error) {
		p, err := startProc(r.bin, r.logDir(), name, args, env)
		if err != nil {
			return nil, err
		}
		t.procs = append(t.procs, p)
		return p, nil
	}
	ok := false
	defer func() {
		if !ok {
			t.stop()
		}
	}()
	switch r.w.shape {
	case single:
		p, err := start("serve", append(common, "serve"), nil)
		if err != nil {
			return nil, err
		}
		t.front = p
	case coordinator:
		// Each shard gets its share of the CPUs. Two shards that each
		// schedule Go code on every CPU of a 2-CPU host fight over both
		// for every request, garbage collections included, and the
		// slowest hop then measured the scheduler more than the shard.
		env := []string{"GOMAXPROCS=" + strconv.Itoa(shardProcs())}
		var urls []string
		for i := 0; i < shardCount; i++ {
			args := append(append([]string{}, common...), "-shard-index", strconv.Itoa(i), "-shard-count", strconv.Itoa(shardCount), "shard")
			if _, err := start(fmt.Sprintf("shard%d", i), args, env); err != nil {
				return nil, err
			}
		}
		for _, p := range t.procs {
			if err := p.waitListening(30 * time.Second); err != nil {
				return nil, err
			}
			urls = append(urls, p.url)
		}
		p, err := start("coordinator", append(listen, "-shard-urls", strings.Join(urls, ","), "serve"), nil)
		if err != nil {
			return nil, err
		}
		t.front = p
	}
	if err := t.front.waitListening(30 * time.Second); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	if err := waitReady(ctx, t.procs); err != nil {
		return nil, err
	}
	ok = true
	return t, nil
}

// holdGC collects the harness's garbage and turns its collector off, with
// a memory limit as a backstop, until the returned function is called. The
// harness holds the corpus and the reference engine, well over 100 MiB; a
// collection of that heap during the timed phases would take CPU from the
// served processes in some runs and not in others.
func holdGC() (resume func()) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	gc := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(int64(m.HeapAlloc) + 2<<30)
	var once sync.Once
	return func() {
		once.Do(func() {
			debug.SetGCPercent(gc)
			debug.SetMemoryLimit(limit)
		})
	}
}

// readAll reads the file at path to its end.
func readAll(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(io.Discard, f)
	return err
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
