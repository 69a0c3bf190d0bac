package main

import (
	"math"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	inf := math.Inf(1)
	lat := []float64{5, 1, inf, 3, 2, 4, 6, 7, 8, inf}
	if got := percentile(append([]float64(nil), lat...), 0.5); got != 5 {
		t.Fatalf("p50 = %v, want 5", got)
	}
	// Two failures in ten ops: p90 lands on a failure.
	if got := percentile(append([]float64(nil), lat...), 0.9); !math.IsInf(got, 1) {
		t.Fatalf("p90 = %v, want +Inf", got)
	}
	if got := percentile(append([]float64(nil), lat...), 0.8); got != 8 {
		t.Fatalf("p80 = %v, want 8", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Fatalf("p99 of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Fatalf("p50 of nothing = %v, want NaN", got)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if xs[0] != 3 {
		t.Fatalf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 9}); got != 4 {
		t.Fatalf("median = %v, want 4", got)
	}
}

const promBefore = `# HELP anonymizer_op_duration_seconds Request latency by operation.
# TYPE anonymizer_op_duration_seconds histogram
anonymizer_op_duration_seconds_bucket{op="reduce",le="0.0001"} 10
anonymizer_op_duration_seconds_sum{op="reduce"} 0.5
anonymizer_op_duration_seconds_count{op="reduce"} 100
anonymizer_request_bytes_total 1000
anonymizer_reduce_cache_hits_total{tier="region"} 60
`

const promAfter = `anonymizer_op_duration_seconds_sum{op="reduce"} 1.5
anonymizer_op_duration_seconds_count{op="reduce"} 300
anonymizer_op_duration_seconds_sum{op="deregister"} 0.25
anonymizer_request_bytes_total 4000
anonymizer_reduce_cache_hits_total{tier="region"} 210
anonymizer_wal_fsync_duration_seconds_sum 1.2e-03
`

func TestParsePromDeltas(t *testing.T) {
	before, after := counters{}, counters{}
	if err := parseProm(strings.NewReader(promBefore), before); err != nil {
		t.Fatal(err)
	}
	if err := parseProm(strings.NewReader(promAfter), after); err != nil {
		t.Fatal(err)
	}
	if got := delta(before, after, "anonymizer_request_bytes_total"); got != 3000 {
		t.Fatalf("bytes delta = %v", got)
	}
	if got := delta(before, after, `anonymizer_reduce_cache_hits_total{tier="region"}`); got != 150 {
		t.Fatalf("hits delta = %v", got)
	}
	// 1.0s over 200 reduces = 5000µs.
	if got := opMean(before, after, "reduce"); math.Abs(got-5000) > 1e-6 {
		t.Fatalf("reduce mean = %vµs, want 5000", got)
	}
	// A series absent before counts from zero; one absent after reads 0.
	if got := deltaPrefix(before, after, "anonymizer_op_duration_seconds_sum"); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("summed op seconds = %v, want 1.25", got)
	}
	if got := after["anonymizer_wal_fsync_duration_seconds_sum"]; got != 1.2e-3 {
		t.Fatalf("exponent form parsed as %v", got)
	}
	if got := opMean(before, after, "anonymize"); got != 0 {
		t.Fatalf("untouched op mean = %v, want 0", got)
	}
	if err := parseProm(strings.NewReader("no_value_here\n"), counters{}); err == nil {
		t.Fatal("malformed line accepted")
	}
}

const heapProfile = `heap profile: 3: 1024 [90: 20480] @ heap/1048576
1: 512 [1: 512] @ 0x1 0x2
#	0x1	main.f+0x10	/src/main.go:10

# runtime.MemStats
# Alloc = 123456
# TotalAlloc = 9876543
# Sys = 1
# Mallocs = 4242
# Frees = 4000
# PauseNs = [0 0 0]
# NumGC = 17
# DebugGC = false
`

func TestParseMemStats(t *testing.T) {
	c := counters{}
	if err := parseMemStats(strings.NewReader(heapProfile), c); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		"memstats.Mallocs": 4242, "memstats.TotalAlloc": 9876543, "memstats.NumGC": 17,
	} {
		if c[k] != want {
			t.Fatalf("%s = %v, want %v", k, c[k], want)
		}
	}
	if _, ok := c["memstats.PauseNs"]; ok {
		t.Fatal("array field kept")
	}
	// The location comment above the block must not leak in.
	if len(c) != 6 {
		t.Fatalf("parsed %d fields: %v", len(c), c)
	}
	if err := parseMemStats(strings.NewReader("heap profile: 0\n"), counters{}); err == nil {
		t.Fatal("profile without a MemStats block accepted")
	}
}

func TestParseStatCPU(t *testing.T) {
	// Field 2 holds spaces and a parenthesis; utime=250, stime=50 ticks.
	stat := "4242 (anon (x) y) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 7 0 100 1000 10"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("cpu = %vs, want 3", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "keys.derive", Start: 10, End: 20, Parent: 0},
		{Name: "cloak.anonymize", Start: 20, End: 70, Parent: 0},
		{Name: "store.register", Start: 60, End: 80, Parent: 0}, // overlaps the engine by 10
		{Name: "cloak.verify", Start: 30, End: 50, Parent: 2},
		{Name: "regcache.do", Start: 95, End: 130, Parent: 0}, // overhangs the op by 30
		{Name: "open", Start: 5, End: -1, Parent: 0},          // never closed: ignored
	}
	st := selfTimes(spans)
	want := map[string][2]int64{ // total, self
		"op":              {100, 100 - 75}, // children cover [10,80] and [95,100]
		"keys.derive":     {10, 10},
		"cloak.anonymize": {50, 30},
		"cloak.verify":    {20, 20},
		"store.register":  {20, 20},
		"regcache.do":     {35, 35},
	}
	for name, w := range want {
		s := st[name]
		if s == nil || s.TotalNs != w[0] || s.SelfNs != w[1] {
			t.Fatalf("%s = %+v, want total %d self %d", name, s, w[0], w[1])
		}
	}
	if _, ok := st["open"]; ok {
		t.Fatal("unclosed span counted")
	}
	shares := layerShares(st)
	if got := shares["cloak"]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("cloak share = %v, want 0.5", got)
	}
	if got := shares["driver"]; math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("driver share = %v, want 0.25", got)
	}
}

func TestAllSpansRebasesParents(t *testing.T) {
	a := &recorder{spans: []span{{Name: "op", Parent: -1}, {Name: "x", Parent: 0}}}
	b := &recorder{spans: []span{{Name: "op", Parent: -1}, {Name: "y", Parent: 0}}}
	all := allSpans([]*recorder{a, b})
	if all[3].Parent != 2 || all[1].Parent != 0 || all[2].Parent != -1 {
		t.Fatalf("parents = %d %d %d %d", all[0].Parent, all[1].Parent, all[2].Parent, all[3].Parent)
	}
	var nilRec *recorder
	if i := nilRec.begin("x", -1); i != -1 {
		t.Fatalf("nil recorder returned span %d", i)
	}
	nilRec.end(-1)
}

func TestSliceMetrics(t *testing.T) {
	sec := time.Second
	samples := []cpuSample{{0, 10}, {sec, 11}, {2 * sec, 12.5}, {3 * sec, 13}}
	var lat []float64
	var ends []time.Duration
	add := func(at time.Duration, n int, ms float64) {
		for i := 0; i < n; i++ {
			lat = append(lat, ms)
			ends = append(ends, at)
		}
	}
	add(sec/2, 100, 1)  // slice 0: 100 ops at 1ms
	add(3*sec/2, 50, 2) // slice 1: 50 ops at 2ms ...
	add(3*sec/2, 50, math.Inf(1))
	add(5*sec/2, 200, 3) // slice 2: 200 ops at 3ms
	add(4*sec, 7, 9)     // after the last sample: not in any slice
	got := sliceMetrics(lat, ends, samples)
	// Rates 100, 50, 200 ops/s; CPU 10, 30, 2.5 ms per successful op;
	// slice p50s 1, 2 (the 50 failures sort above it), 3.
	if got.opsS != 100 || got.cpuMsPerOp != 10 || got.p50 != 2 {
		t.Fatalf("got %+v", got)
	}
	// Fewer ops than minP99Ops: one group over every slice; 50 of 400 failed.
	if !math.IsInf(got.p99, 1) {
		t.Fatalf("p99 = %v, want +Inf", got.p99)
	}
}

func TestSeededUsersAreStratified(t *testing.T) {
	const segs = 50
	a := seededUsers(7, 1, 3*segs, segs)
	b := seededUsers(7, 1, 3*segs, segs)
	counts := map[int]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different users")
		}
		counts[int(a[i])]++
	}
	for s := 0; s < segs; s++ {
		if counts[s] != 3 {
			t.Fatalf("segment %d drawn %d times in three permutations", s, counts[s])
		}
	}
	if c := seededUsers(8, 1, 3*segs, segs); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatal("different seeds gave the same order")
	}
}

func TestStopAcceptsDeathBySIGTERM(t *testing.T) {
	// A process without a SIGTERM handler (here sleep; serve in the
	// moment between its banner and signal.Notify) dies by the signal's
	// default action: stop must count that as a clean stop.
	cmd := exec.Command("sleep", "30")
	if err := cmd.Start(); err != nil {
		t.Skip("no sleep binary:", err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	if err := s.stop(); err != nil {
		t.Fatalf("stop = %v, want nil", err)
	}
	if err := s.stop(); err != nil {
		t.Fatalf("second stop = %v, want the first result", err)
	}
}
