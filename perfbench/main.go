// Command perfbench is the repository benchmark. It launches
// `anonymizer serve` as a separate process, drives it from two client
// connections in a closed loop, checks every answer, and prints one JSON
// result line: the end-to-end metrics with -trace 0, the per-layer
// metrics (server counters at the window edges plus a traced in-process
// replay) with -trace 1. README.md describes the workloads and metrics;
// run.sh builds the server and this driver and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rc "github.com/reversecloak/reversecloak"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	server   string // anonymizer binary
	workdir  string // scratch root; each run uses its own subdirectory
}

// masterKey is the fixed master secret every run derives its cloak keys
// from, so two runs with one seed grow the same regions.
const masterKey = `{"active":1,"epochs":{"1":"8f3c1a9e5b7d2f4061a8c3e5d7f9b1a3c5e7092b4d6f8a0c2e4a6b8d0f214365"}}`

// mapSeed is serve's default map seed; the in-process engines rebuild the
// same map from it.
const mapSeed = "reversecloak-default-map-seed-01"

func main() {
	var (
		o      options
		traceN int
	)
	flag.StringVar(&o.workload, "workload", "", "cloak-write or reduce-read")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured window, seconds")
	flag.IntVar(&traceN, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&o.server, "server", "", "anonymizer binary")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "scratch root for run files")
	flag.Parse()
	o.trace = traceN == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects named values; non-finite values (a latency percentile
// that landed on a failed op) are reported as the largest float.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = math.MaxFloat64
	}
	m[name] = metric{Value: v, Unit: unit}
}

// env is the state of one run.
type env struct {
	o       options
	wl      *workload
	graph   *rc.Graph
	reverse *rc.Engine // deanonymize-only engine for the local round-trip checks
	runDir  string
	keyFile string
	streams [][]op
	pool    []poolEntry

	verified  atomic.Int64 // cloak-write round trips checked
	wrong     atomic.Int64 // failed output checks
	wrongOnce sync.Once
}

// wrongf records a failed output check; the run then reports
// correct=false. The first message goes to stderr.
func (e *env) wrongf(format string, args ...any) {
	e.wrong.Add(1)
	e.wrongOnce.Do(func() { fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...) })
}

// serveArgs returns the serve flags of the workload.
func (e *env) serveArgs() []string {
	args := []string{
		"-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0", "-map", "small",
		"-master-key-file", e.keyFile, "-master-key-reload", "0",
	}
	if e.wl.cacheBytes != 0 {
		args = append(args, "-reduce-cache-bytes", fmt.Sprint(e.wl.cacheBytes))
	}
	return args
}

// window is what the clients saw in one closed-loop phase.
type window struct {
	lat       []float64 // ms per attempted op, +Inf for failures
	ok        int64
	attempted int64
	rtNs      int64 // client time of every round trip
	elapsed   time.Duration
	next      []int // each connection's next stream index
	recs      []*recorder
	ends      []time.Duration // completion offset of each op, aligned with lat
}

// sliceLen is the length of the window's slices: the end-to-end rates
// and latencies are medians over slices, so a burst of load from outside
// the benchmark moves a few slices rather than the result.
const sliceLen = time.Second

// cpuSample is the server's CPU time at an offset into the window.
type cpuSample struct {
	at  time.Duration
	cpu float64 // seconds
}

// sliced is the window's end-to-end figures.
type sliced struct {
	opsS, cpuMsPerOp, p50, p99 float64
}

// minP99Ops is the fewest ops a p99 is taken over: fifty samples lie
// beyond it, enough to steady the p99 of cloak-write's heavy-tailed
// engine cost, which one window fills only once.
const minP99Ops = 5000

// sliceMetrics cuts the window at the CPU sample offsets and returns the
// medians over slices of the successful-op rate, the server CPU per
// successful op and the p50 latency (an op belongs to the slice it
// completed in; failed ops count as infinitely slow). The p99 is the
// median over groups of adjacent slices, each group holding at least
// minP99Ops ops when the window has that many.
func sliceMetrics(lat []float64, ends []time.Duration, samples []cpuSample) sliced {
	k := len(samples) - 1
	if k < 1 {
		return sliced{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	}
	lats := make([][]float64, k)
	for i, end := range ends {
		s := sort.Search(k, func(j int) bool { return samples[j+1].at > end })
		if s < k {
			lats[s] = append(lats[s], lat[i])
		}
	}
	rates := make([]float64, k)
	cpus := make([]float64, k)
	p50s := make([]float64, k)
	var total int
	for s := 0; s < k; s++ {
		var ok float64
		for _, v := range lats[s] {
			if !math.IsInf(v, 1) {
				ok++
			}
		}
		rates[s] = ok / (samples[s+1].at - samples[s].at).Seconds()
		cpus[s] = ratio(1000*(samples[s+1].cpu-samples[s].cpu), ok)
		if ok == 0 {
			cpus[s] = math.Inf(1)
		}
		p50s[s] = percentile(lats[s], 0.50)
		total += len(lats[s])
	}
	groups := min(max(total/minP99Ops, 1), k)
	p99s := make([]float64, groups)
	for g := range p99s {
		var pooled []float64
		for s := g * k / groups; s < (g+1)*k/groups; s++ {
			pooled = append(pooled, lats[s]...)
		}
		p99s[g] = percentile(pooled, 0.99)
	}
	return sliced{median(rates), median(cpus), median(p50s), median(p99s)}
}

// drive runs every connection's closed loop from stream index start[c]
// for d (or, when ops > 0, for exactly ops ops per connection) and waits
// until each connection's last op has completed. A non-nil tick is called
// at every sliceLen boundary up to d, with the time since the start.
func (e *env) drive(clients []*rc.Client, start []int, d time.Duration, ops int, traced bool,
	tick func(at time.Duration)) *window {
	w := &window{next: make([]int, conns), recs: make([]*recorder, conns)}
	lats := make([][]float64, conns)
	ends := make([][]time.Duration, conns)
	oks := make([]int64, conns)
	rts := make([]int64, conns)
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	if tick != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; time.Duration(k)*sliceLen <= d; k++ {
				time.Sleep(time.Until(t0.Add(time.Duration(k) * sliceLen)))
				tick(time.Since(t0))
			}
		}()
	}
	for c := 0; c < conns; c++ {
		var rec *recorder
		if traced {
			rec = newRecorder(t0, 1<<16)
			w.recs[c] = rec
		}
		lats[c] = make([]float64, 0, 1<<14)
		wg.Add(1)
		go func(c int, rec *recorder) {
			defer wg.Done()
			s := e.streams[c]
			i := start[c]
			for n := 0; ; n++ {
				if ops > 0 && n >= ops || ops == 0 && !time.Now().Before(deadline) {
					break
				}
				root := rec.startOp(int64(c)<<40 | int64(i))
				out := e.wl.exec(e, clients[c], s[i%len(s)], rec, root)
				rec.end(root)
				lats[c] = append(lats[c], out.latMs)
				ends[c] = append(ends[c], time.Since(t0))
				rts[c] += out.rtNs
				if out.ok {
					oks[c]++
				}
				i++
			}
			w.next[c] = i
		}(c, rec)
	}
	wg.Wait()
	w.elapsed = time.Since(t0)
	for c := 0; c < conns; c++ {
		w.lat = append(w.lat, lats[c]...)
		w.ends = append(w.ends, ends[c]...)
		w.ok += oks[c]
		w.rtNs += rts[c]
	}
	w.attempted = int64(len(w.lat))
	return w
}

func dialAll(addr string) ([]*rc.Client, error) {
	clients := make([]*rc.Client, 0, conns)
	for c := 0; c < conns; c++ {
		cl, err := rc.DialServer(addr)
		if err != nil {
			closeAll(clients)
			return nil, err
		}
		clients = append(clients, cl)
	}
	return clients, nil
}

func closeAll(clients []*rc.Client) {
	for _, c := range clients {
		_ = c.Close()
	}
}

// launch starts the server and brings it to the state the window opens
// on: preloaded pool (reduce-read) and warm-up ops run. The returned
// duration is that launch's setup time.
func (e *env) launch() (*server, []*rc.Client, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(e.o.server, e.serveArgs())
	if err != nil {
		return nil, nil, 0, err
	}
	clients, err := dialAll(srv.addr)
	if err == nil && e.wl.poolSize > 0 {
		e.pool, err = e.preloadPool(clients)
	}
	if err != nil {
		closeAll(clients)
		_ = srv.stop()
		return nil, nil, 0, err
	}
	warm := e.drive(clients, make([]int, conns), 0, e.wl.warmOps, false, nil)
	setup := time.Since(t0)
	if warm.ok != warm.attempted {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d warm-up ops failed\n", warm.attempted-warm.ok, warm.attempted)
	}
	return srv, clients, setup, nil
}

func run(o options) (*result, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown -workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	if o.server == "" {
		return nil, fmt.Errorf("-server is required (run.sh builds and passes it)")
	}
	if o.seconds < sliceLen.Seconds() {
		return nil, fmt.Errorf("-seconds must be at least %v", sliceLen.Seconds())
	}
	g, err := rc.SmallMap([]byte(mapSeed))
	if err != nil {
		return nil, err
	}
	reverse, err := rc.NewRGEEngine(g, nil)
	if err != nil {
		return nil, err
	}
	runDir, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("run-%s-%d", wl.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(runDir) }()
	e := &env{o: o, wl: wl, graph: g, reverse: reverse, runDir: runDir,
		keyFile: filepath.Join(runDir, "master.key")}
	if err := os.WriteFile(e.keyFile, []byte(masterKey), 0o600); err != nil {
		return nil, err
	}
	e.streams = genStreams(wl, o.seed, g.NumSegments())

	// Launch setups times; keep the last launch running for the window.
	var (
		srv     *server
		clients []*rc.Client
		setups  []float64
	)
	for i := 0; i < wl.setups; i++ {
		if srv != nil {
			closeAll(clients)
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("stopping server: %w", err)
			}
		}
		var setup time.Duration
		srv, clients, setup, err = e.launch()
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	defer func() {
		closeAll(clients)
		_ = srv.stop()
	}()

	// The measured window: counters and CPU are read exactly at its edges,
	// with every connection idle.
	before, err := scrape(srv.admin)
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := make([]int, conns)
	for c := range start {
		start[c] = wl.warmOps
	}
	samples := []cpuSample{{0, cpu0}}
	var sampleErr error
	win := e.drive(clients, start, time.Duration(o.seconds*float64(time.Second)), 0, false,
		func(at time.Duration) {
			cpu, err := srv.cpuSeconds()
			if err != nil {
				sampleErr = err
			}
			samples = append(samples, cpuSample{at, cpu})
		})
	if sampleErr != nil {
		return nil, sampleErr
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	rss, err := srv.rssMiB()
	if err != nil {
		return nil, err
	}
	after, err := scrape(srv.admin)
	if err != nil {
		return nil, err
	}
	sl := sliceMetrics(win.lat, win.ends, samples)
	m := metrics{}
	if !o.trace {
		m.set("setup_s", "s", median(setups))
		m.set("ops_s", "ops/s", sl.opsS)
		m.set("p50_ms", "ms", sl.p50)
		m.set("p99_ms", "ms", sl.p99)
		m.set("cpu_ms_per_op", "ms", sl.cpuMsPerOp)
		m.set("server_rss_mb", "MiB", rss)
	} else {
		counterMetrics(m, e, before, after, win)
		if err := e.traced(m, clients, win); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops in %.2fs (%d failed), server cpu %.2fs, "+
		"setups %.3f, %d round trips verified\n",
		wl.name, o.seed, win.attempted, win.elapsed.Seconds(), win.attempted-win.ok, cpu1-cpu0,
		setups, e.verified.Load())
	return &result{
		Correct:   e.wrong.Load() == 0,
		Attempted: win.attempted,
		Failed:    win.attempted - win.ok,
		Metrics:   m,
	}, nil
}

// opMean is the mean server-side latency of one op over the window, in
// microseconds, from the op histogram's _sum and _count deltas.
func opMean(before, after counters, op string) float64 {
	sum := delta(before, after, `anonymizer_op_duration_seconds_sum{op="`+op+`"}`)
	n := delta(before, after, `anonymizer_op_duration_seconds_count{op="`+op+`"}`)
	return ratio(sum*1e6, n)
}

// counterMetrics turns the server's counter deltas over the window into
// per-layer metrics.
func counterMetrics(m metrics, e *env, before, after counters, win *window) {
	ops := float64(win.ok)
	d := func(series string) float64 { return delta(before, after, series) }
	perOp := func(v float64) float64 { return ratio(v, ops) }

	serverSec := deltaPrefix(before, after, "anonymizer_op_duration_seconds_sum")
	m.set("pipeline.wire_us_per_op", "us", perOp(float64(win.rtNs)/1e3-serverSec*1e6))
	m.set("pipeline.request_bytes_per_op", "bytes", perOp(d("anonymizer_request_bytes_total")))

	m.set("server.anonymize_us", "us", opMean(before, after, "anonymize"))
	m.set("server.reduce_us", "us", opMean(before, after, "reduce"))
	m.set("server.set_trust_us", "us", opMean(before, after, "set_trust"))
	m.set("server.deregister_us", "us", opMean(before, after, "deregister"))
	m.set("server.allocs_per_op", "count", perOp(d("memstats.Mallocs")))
	m.set("server.alloc_bytes_per_op", "bytes", perOp(d("memstats.TotalAlloc")))
	m.set("server.gc_per_kop", "1/kop", perOp(1000*d("memstats.NumGC")))

	// Every anonymize derives its key set once; reads derive on a key-tier
	// miss, or on every request_keys when the cache is off.
	derives := d(`anonymizer_op_duration_seconds_count{op="anonymize"}`) +
		d(`anonymizer_reduce_cache_misses_total{tier="keys"}`)
	if e.wl.cacheBytes == 0 {
		derives += d(`anonymizer_op_duration_seconds_count{op="request_keys"}`)
	}
	m.set("keys.derives_per_op", "count", perOp(derives))

	hits := d(`anonymizer_reduce_cache_hits_total{tier="region"}`)
	misses := d(`anonymizer_reduce_cache_misses_total{tier="region"}`)
	waits := d("anonymizer_reduce_cache_singleflight_waits_total")
	m.set("regcache.hit_ratio", "ratio", ratio(hits, hits+misses+waits))
	m.set("regcache.evictions_per_op", "count", perOp(d("anonymizer_reduce_cache_evictions_total")))
	m.set("regcache.singleflight_waits_per_op", "count", perOp(waits))
	m.set("regcache.bytes", "bytes", after["anonymizer_reduce_cache_bytes"])
}
