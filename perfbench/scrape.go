package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// counters is one scrape of the server's admin listener: every
// Prometheus series from /metrics keyed by its name and label set exactly
// as exposed (`anonymizer_op_duration_seconds_sum{op="reduce"}`), plus the
// runtime.MemStats block of /debug/pprof/heap?debug=1 keyed
// `memstats.<Field>`.
type counters map[string]float64

// delta returns after-before for one series. An absent series reads 0:
// the server omits series for layers that did no work, such as
// untouched ops.
func delta(before, after counters, series string) float64 {
	return after[series] - before[series]
}

// deltaPrefix sums after-before over every series whose key starts with
// prefix.
func deltaPrefix(before, after counters, prefix string) float64 {
	var d float64
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			d += v - before[k]
		}
	}
	return d
}

// parseProm parses the Prometheus text exposition format into c.
// Comment and blank lines are skipped; every sample line is
// `series value`, the series being a bare name or name{labels}.
func parseProm(r io.Reader, c counters) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return fmt.Errorf("metrics: line %q: %v", line, err)
		}
		c[strings.TrimSpace(line[:cut])] = v
	}
	return sc.Err()
}

// parseMemStats extracts the `# Field = value` lines of the MemStats block
// that /debug/pprof/heap?debug=1 appends to the heap profile. Only scalar
// fields are kept (PauseNs and BySize are arrays and are skipped).
func parseMemStats(r io.Reader, c counters) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# runtime.MemStats") {
			inBlock = true
			continue
		}
		if !inBlock || !strings.HasPrefix(line, "# ") {
			continue
		}
		name, val, ok := strings.Cut(line[2:], " = ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		c["memstats."+strings.TrimSpace(name)] = v
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !inBlock {
		return fmt.Errorf("heap profile: no runtime.MemStats block")
	}
	return nil
}

var adminClient = &http.Client{Timeout: 30 * time.Second}

// scrape reads /metrics and the heap profile's MemStats block from the
// admin listener at addr.
func scrape(addr string) (counters, error) {
	c := counters{}
	for _, ep := range []struct {
		path  string
		parse func(io.Reader, counters) error
	}{
		{"/metrics", parseProm},
		{"/debug/pprof/heap?debug=1", parseMemStats},
	} {
		resp, err := adminClient.Get("http://" + addr + ep.path)
		if err != nil {
			return nil, err
		}
		err = ep.parse(resp.Body, c)
		_ = resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s", ep.path, resp.Status)
		}
	}
	return c, nil
}
