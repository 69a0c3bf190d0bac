package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	rc "github.com/reversecloak/reversecloak"
	"github.com/reversecloak/reversecloak/internal/accessctl"
	"github.com/reversecloak/reversecloak/internal/anonymizer"
	"github.com/reversecloak/reversecloak/internal/keys"
	"github.com/reversecloak/reversecloak/internal/regcache"
)

// layers holds in-process instances of the modules the server is built
// from, configured as `serve` configures them, for the traced replay.
// Every call into a layer is wrapped in a span named <layer>.<call>.
type layers struct {
	e     *env
	eng   *rc.Engine
	kr    *keys.Keyring
	epoch uint32

	mu    sync.Mutex
	anon  []anonSample
	fresh []freshRegion // regions kept for the reverse probe
	fails atomic.Int64  // cloak refusals and store errors during replay
}

// anonSample is one traced Engine.Anonymize call.
type anonSample struct {
	us       float64
	segments int
	salts    int     // salt retries summed over levels
	coverage float64 // top level's users covered / requested k
}

// freshRegion is a newly anonymized region with its keys.
type freshRegion struct {
	region *rc.CloakedRegion
	ks     *keys.Set
	user   rc.SegmentID
}

const keepFresh = 32

func newLayers(e *env) (*layers, error) {
	sim, err := rc.NewSimulation(e.graph, rc.WorkloadConfig{Cars: 2000, Seed: []byte(mapSeed)})
	if err != nil {
		return nil, err
	}
	eng, err := rc.NewRGEEngine(e.graph, sim.UsersOn)
	if err != nil {
		return nil, err
	}
	kr, err := keys.LoadKeyring(e.keyFile)
	if err != nil {
		return nil, err
	}
	return &layers{e: e, eng: eng, kr: kr, epoch: kr.ActiveEpoch()}, nil
}

// derive is a traced Keyring.DeriveSet.
func (l *layers) derive(rec *recorder, parent int32, id string, levels int) (*keys.Set, error) {
	sp := rec.begin("keys.derive", parent)
	ks, err := l.kr.DeriveSet(l.epoch, id, levels)
	rec.end(sp)
	return ks, err
}

// anonymize is a traced Engine.Anonymize; successful calls feed the
// cloak work and privacy counts.
func (l *layers) anonymize(rec *recorder, parent int32, user rc.SegmentID, prof rc.Profile, ks *keys.Set) (*rc.CloakedRegion, error) {
	sp := rec.begin("cloak.anonymize", parent)
	t := time.Now()
	region, tr, err := l.eng.Anonymize(rc.Request{UserSegment: user, Profile: prof, Keys: ks.All()})
	d := time.Since(t)
	rec.end(sp)
	if err != nil {
		l.fails.Add(1)
		return nil, err
	}
	if !region.Contains(user) {
		l.e.wrongf("replay: region does not contain user segment %d", user)
	}
	s := anonSample{us: float64(d) / 1e3, segments: len(region.Segments)}
	for _, salt := range tr.Salts {
		s.salts += int(salt)
	}
	top := len(prof.Levels) - 1
	s.coverage = ratio(float64(tr.UsersCovered[top]), float64(prof.Levels[top].K))
	l.mu.Lock()
	l.anon = append(l.anon, s)
	if len(l.fresh) < keepFresh {
		l.fresh = append(l.fresh, freshRegion{region: region, ks: ks, user: user})
	}
	l.mu.Unlock()
	return region, nil
}

// replay runs body over the first n window ops of each connection's
// stream, one goroutine per connection as on the wire, each op inside a
// root span.
func (l *layers) replay(n int, body func(rec *recorder, root int32, o op)) []*recorder {
	recs := make([]*recorder, conns)
	base := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		recs[c] = newRecorder(base, n*8)
		wg.Add(1)
		go func(c int, rec *recorder) {
			defer wg.Done()
			s := l.e.streams[c]
			for i := l.e.wl.warmOps; i < l.e.wl.warmOps+n; i++ {
				root := rec.startOp(int64(c)<<40 | int64(i))
				body(rec, root, s[i%len(s)])
				rec.end(root)
			}
		}(c, recs[c])
	}
	wg.Wait()
	return recs
}

func newPolicy(levels int) *accessctl.Policy {
	p, err := accessctl.NewPolicy(levels, levels)
	if err != nil {
		panic(err) // levels >= 1 always
	}
	return p
}

// churnStore is the part of the store API the write replay and the
// store probes call.
type churnStore interface {
	anonymizer.Store
	AllocateID() string
}

// replayWrite replays cloak-write in the handler's call order: allocate
// ID, derive keys, anonymize, register, deregister.
func (l *layers) replayWrite(st churnStore, n int) []*recorder {
	prof := l.e.wl.profile
	nLevels := len(prof.Levels)
	return l.replay(n, func(rec *recorder, root int32, o op) {
		sp := rec.begin("store.allocate", root)
		id := st.AllocateID()
		rec.end(sp)
		ks, err := l.derive(rec, root, id, nLevels)
		if err != nil {
			l.fails.Add(1)
			return
		}
		region, err := l.anonymize(rec, root, o.user, prof, ks)
		if err != nil {
			return
		}
		reg := anonymizer.NewDerivedRegistration(region, l.kr, l.epoch, id, nLevels, newPolicy(nLevels))
		sp = rec.begin("store.register", root)
		_, err = st.Register(reg)
		rec.end(sp)
		if err != nil {
			l.fails.Add(1)
			return
		}
		sp = rec.begin("store.deregister", root)
		err = st.Deregister(id)
		rec.end(sp)
		if err != nil {
			l.fails.Add(1)
		}
	})
}

// replayRead replays reduce-read in the handler's call order: lookup,
// region-tier get, and on a miss the singleflight compute (nearest cached
// level, key tier or derive, reverse) followed by the liveness re-check.
// The cache is warmed with the same warm-up ops as the server's first.
func (l *layers) replayRead(n int) ([]*recorder, error) {
	st := anonymizer.NewShardedStore(0,
		anonymizer.WithStoreTTL(rc.DefaultRegistrationTTL), anonymizer.WithStoreGCInterval(rc.DefaultGCInterval))
	defer func() { _ = st.Close() }()
	nLevels := len(l.e.wl.profile.Levels)
	for _, ent := range l.e.pool {
		pol := newPolicy(nLevels)
		if err := pol.SetTrust(requesterReader, 0); err != nil {
			return nil, err
		}
		reg := anonymizer.NewDerivedRegistration(ent.region, l.kr, l.epoch, ent.id, nLevels, pol)
		if _, err := st.Register(reg); err != nil {
			return nil, err
		}
	}
	cache := regcache.New(regcache.Config{MaxBytes: l.e.wl.cacheBytes})
	gen := l.kr.Generation()
	read := func(rec *recorder, root int32, o op) {
		ent := &l.e.pool[o.pool]
		sp := rec.begin("store.lookup", root)
		_, err := st.Lookup(ent.id)
		rec.end(sp)
		if err != nil {
			l.fails.Add(1)
			return
		}
		sp = rec.begin("regcache.get", root)
		out, hit := cache.GetRegion(ent.id, 0)
		rec.end(sp)
		if !hit {
			do := rec.begin("regcache.do", root)
			out, err = cache.DoRegion(ent.id, 0, func() (*rc.CloakedRegion, error) {
				base := ent.region
				if r, lv, ok := cache.NearestRegion(ent.id, 1); ok && lv < base.PrivacyLevel() {
					base = r
				}
				sp := rec.begin("regcache.get_keys", do)
				ks, ok := cache.GetKeys(ent.id, l.epoch, nLevels, gen)
				rec.end(sp)
				if !ok {
					var err error
					if ks, err = l.derive(rec, do, ent.id, nLevels); err != nil {
						return nil, err
					}
					sp = rec.begin("regcache.put_keys", do)
					cache.PutKeys(ent.id, l.epoch, nLevels, gen, ks)
					rec.end(sp)
				}
				grant, err := ks.Grant(0)
				if err != nil {
					return nil, err
				}
				sp = rec.begin("cloak.reverse", do)
				defer rec.end(sp)
				return l.eng.Deanonymize(base, grant, 0)
			})
			rec.end(do)
			if err != nil {
				l.fails.Add(1)
				return
			}
			sp = rec.begin("store.lookup", root)
			_, err = st.Lookup(ent.id)
			rec.end(sp)
			if err != nil {
				l.fails.Add(1)
				return
			}
		}
		if !isExactly(out, ent.user) {
			l.e.wrongf("replay: %s reduced to %v, want [%d]", ent.id, out.Segments, ent.user)
		}
	}
	// Warm the cache with the server's warm-up ops, untraced.
	warm := l.e.wl.warmOps
	for c := 0; c < conns; c++ {
		for i := 0; i < warm; i++ {
			read(nil, -1, l.e.streams[c][i])
		}
	}
	return l.replay(n, read), nil
}

// probe times n calls of f inside spans named name and returns their
// mean in microseconds.
func probe(rec *recorder, name string, n int, f func(i int) error) (float64, error) {
	var total time.Duration
	for i := 0; i < n; i++ {
		sp := rec.begin(name, -1)
		t := time.Now()
		err := f(i)
		total += time.Since(t)
		rec.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return float64(total) / 1e3 / float64(n), nil
}

// Tracing overhead: overheadPairs untraced and traced closed-loop phases
// of overheadPhase each, alternated ABBA so a steady drift of the host
// falls on both sides alike.
const (
	overheadPairs = 4
	overheadPhase = time.Second
)

// traced runs the per-layer phases of a -trace 1 run and adds their
// metrics to m:
//
//  1. the window's closed loop again, in alternating untraced and traced
//     phases of equal length (the traced ones put client spans around
//     every round trip); the ratio of their median ops/s is the tracing
//     overhead;
//  2. a ping probe;
//  3. the in-process replay of the window's ops through the layers'
//     public functions, which gives each layer's self time;
//  4. probes of individual layer calls, and of the durable store under
//     concurrent writers.
//
// Every span is written to <workdir>/spans-<workload>.jsonl.
func (e *env) traced(m metrics, clients []*rc.Client, win *window) error {
	phases := map[string][]*recorder{}
	var plain, withSpans []float64
	next := win.next
	for i := 0; i < 2*overheadPairs; i++ {
		traced := i%4 == 1 || i%4 == 2
		w := e.drive(clients, next, overheadPhase, 0, traced, nil)
		next = w.next
		rate := float64(w.ok) / w.elapsed.Seconds()
		if traced {
			withSpans = append(withSpans, rate)
			phases["wire"] = append(phases["wire"], w.recs...)
		} else {
			plain = append(plain, rate)
		}
	}
	m.set("trace.ops_s", "ops/s", median(withSpans))
	m.set("trace.overhead_pct", "%", 100*(ratio(median(plain), median(withSpans))-1))

	ping := newRecorder(time.Now(), 1000)
	pingUs := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		us, err := probe(ping, "pipeline.ping", 1, func(int) error { return clients[0].Ping() })
		if err != nil {
			return err
		}
		pingUs = append(pingUs, us)
	}
	phases["ping"] = []*recorder{ping}
	m.set("pipeline.ping_us", "us", median(pingUs))

	l, err := newLayers(e)
	if err != nil {
		return err
	}
	defer func() { _ = l.kr.Close() }()
	perConn := int(win.attempted) / conns
	n := min(perConn, e.wl.replayCap)
	if n < 1 {
		n = 1
	}
	switch e.wl.name {
	case "cloak-write":
		st := anonymizer.NewShardedStore(0,
			anonymizer.WithStoreTTL(rc.DefaultRegistrationTTL), anonymizer.WithStoreGCInterval(rc.DefaultGCInterval))
		phases["replay"] = l.replayWrite(st.(churnStore), n)
		_ = st.Close()
	case "reduce-read":
		if phases["replay"], err = l.replayRead(n); err != nil {
			return err
		}
	}

	pr := newRecorder(time.Now(), 1<<14)
	phases["probe"] = []*recorder{pr}
	if phases["durable"], err = l.probes(m, pr); err != nil {
		return err
	}

	stats := selfTimes(allSpans(phases["replay"]))
	shares := layerShares(stats)
	for _, layer := range []string{"driver", "keys", "cloak", "store", "regcache"} {
		m.set("trace.self_share_"+layer, "ratio", shares[layer])
	}
	printSelfTimes("wire", selfTimes(allSpans(phases["wire"])))
	printSelfTimes("replay", stats)
	printSelfTimes("durable", selfTimes(allSpans(phases["durable"])))
	if f := l.fails.Load(); f > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d replay calls failed\n", f)
	}
	return dumpSpans(filepath.Join(e.o.workdir, "spans-"+e.wl.name+".jsonl"), phases)
}

// openDurable opens a durable store configured as `serve -data-dir`
// configures it, with the given fsync policy.
func (l *layers) openDurable(dir string, policy anonymizer.FsyncPolicy) (*anonymizer.DurableStore, error) {
	return anonymizer.OpenDurableStore(dir,
		anonymizer.WithFsyncPolicy(policy),
		anonymizer.WithSnapshotEvery(4096),
		anonymizer.WithKeyring(l.kr),
		anonymizer.WithTTL(rc.DefaultRegistrationTTL),
		anonymizer.WithGCInterval(rc.DefaultGCInterval))
}

// probes times the layer calls one at a time: key derivation at 1 and 3
// levels, a fresh region's full reverse, the engine's allocations per
// anonymize, and the in-memory and durable stores' register, lookup and
// deregister. It then runs the durable churn probe and returns its
// writers' spans.
func (l *layers) probes(m metrics, rec *recorder) ([]*recorder, error) {
	prof := l.e.wl.profile
	users := l.e.streams[0]

	// Allocations per anonymize, with every other goroutine idle. Keys are
	// derived and the sample slices grown first, so the count is the
	// engine's alone.
	const allocRuns = 20
	sets := make([]*keys.Set, allocRuns)
	for i := range sets {
		ks, err := l.derive(rec, -1, fmt.Sprintf("probe-a%d", i), len(prof.Levels))
		if err != nil {
			return nil, err
		}
		sets[i] = ks
	}
	l.mu.Lock()
	l.anon = slices.Grow(l.anon, allocRuns)
	l.fresh = slices.Grow(l.fresh, keepFresh)
	l.mu.Unlock()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, ks := range sets {
		_, _ = l.anonymize(rec, -1, users[i].user, prof, ks)
	}
	runtime.ReadMemStats(&ms1)
	m.set("cloak.allocs_per_anonymize", "count", float64(ms1.Mallocs-ms0.Mallocs)/allocRuns)

	l.mu.Lock()
	anon := append([]anonSample(nil), l.anon...)
	fresh := append([]freshRegion(nil), l.fresh...)
	l.mu.Unlock()
	us := make([]float64, len(anon))
	var segs, salts, cover []float64
	for i, s := range anon {
		us[i] = s.us
		segs = append(segs, float64(s.segments))
		salts = append(salts, float64(s.salts))
		cover = append(cover, s.coverage)
	}
	m.set("cloak.anonymize_us_p50", "us", percentile(us, 0.50))
	m.set("cloak.anonymize_us_p99", "us", percentile(us, 0.99))
	m.set("cloak.region_segments", "count", mean(segs))
	m.set("cloak.salt_retries_per_op", "count", mean(salts))
	m.set("cloak.k_coverage", "ratio", mean(cover))

	reverseUs, err := probe(rec, "cloak.reverse", len(fresh), func(i int) error {
		grant, err := fresh[i].ks.Grant(0)
		if err != nil {
			return err
		}
		out, err := l.eng.Deanonymize(fresh[i].region, grant, 0)
		if err != nil {
			return err
		}
		if !isExactly(out, fresh[i].user) {
			l.e.wrongf("probe: fresh region reversed to %v, want [%d]", out.Segments, fresh[i].user)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.set("cloak.reverse_us", "us", reverseUs)

	for _, nl := range []int{1, 3} {
		d, err := probe(rec, "keys.derive", 2000, func(i int) error {
			_, err := l.kr.DeriveSet(l.epoch, fmt.Sprintf("r%d", i+1), nl)
			return err
		})
		if err != nil {
			return nil, err
		}
		m.set(fmt.Sprintf("keys.derive_us_%dlevel", nl), "us", d)
	}

	if len(fresh) == 0 {
		return nil, fmt.Errorf("probe: no region was anonymized")
	}
	sample := fresh[0]
	nLevels := len(sample.region.Levels)
	st := anonymizer.NewShardedStore(0,
		anonymizer.WithStoreTTL(rc.DefaultRegistrationTTL), anonymizer.WithStoreGCInterval(rc.DefaultGCInterval))
	defer func() { _ = st.Close() }()
	if err := l.storeProbes(m, rec, st.(churnStore), "store", 2000, sample.region, nLevels); err != nil {
		return nil, err
	}
	return l.durableProbes(m, rec, sample.region, nLevels)
}

// Durable store probe sizes: live registrations recovered on open, and
// register+set_trust+deregister ops per concurrent writer.
const (
	durableLive     = 20000
	durableChurnOps = 300
)

// durableProbes measures the durable store (storelog, group commit and
// recovery) at fsync=always, as a `serve -data-dir -fsync always` store
// runs:
//
//  1. durableLive registrations are journaled without fsync, the store is
//     closed, and the timed reopen gives the recovery rate;
//  2. single-caller register and deregister, one call at a time;
//  3. conns concurrent writers, each running durableChurnOps ops of
//     register, set_trust and deregister (three journaled mutations),
//     so group commit gathers the writers' records into shared fsyncs.
//     The store's WAL counters over this phase give the fsyncs, records
//     and group-commit cohort per op.
func (l *layers) durableProbes(m metrics, rec *recorder, region *rc.CloakedRegion, nLevels int) ([]*recorder, error) {
	dir := filepath.Join(l.e.runDir, "probe-data")
	st, err := l.openDurable(dir, anonymizer.FsyncNever)
	if err != nil {
		return nil, err
	}
	for i := 0; i < durableLive; i++ {
		reg := anonymizer.NewDerivedRegistration(region, l.kr, l.epoch, st.AllocateID(), nLevels, newPolicy(nLevels))
		if _, err := st.Register(reg); err != nil {
			_ = st.Close()
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	t := time.Now()
	if st, err = l.openDurable(dir, anonymizer.FsyncAlways); err != nil {
		return nil, err
	}
	defer func() { _ = st.Close() }()
	if st.Len() != durableLive {
		return nil, fmt.Errorf("durable probe: recovered %d registrations, want %d", st.Len(), durableLive)
	}
	m.set("durable.recovery_regs_per_s", "1/s", float64(durableLive)/time.Since(t).Seconds())

	if err := l.storeProbes(m, rec, st, "durable", 200, region, nLevels); err != nil {
		return nil, err
	}

	before := st.WALStats()
	recs := make([]*recorder, conns)
	errs := make([]error, conns)
	base := time.Now()
	var wg sync.WaitGroup
	for w := range recs {
		recs[w] = newRecorder(base, 4*durableChurnOps)
		wg.Add(1)
		go func(w int, rec *recorder) {
			defer wg.Done()
			for i := 0; i < durableChurnOps; i++ {
				root := rec.startOp(int64(w)<<40 | int64(i))
				errs[w] = l.durableChurnOp(st, rec, root, region, nLevels)
				rec.end(root)
				if errs[w] != nil {
					return
				}
			}
		}(w, recs[w])
	}
	wg.Wait()
	elapsed := time.Since(base)
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("durable churn: %w", err)
	}
	after := st.WALStats()
	ops := float64(conns * durableChurnOps)
	m.set("durable.churn_us", "us", float64(elapsed)/1e3/durableChurnOps)
	m.set("durable.fsyncs_per_op", "count", float64(after.Fsyncs-before.Fsyncs)/ops)
	m.set("durable.records_per_op", "count", float64(after.Records-before.Records)/ops)
	m.set("durable.commit_cohort", "count", ratio(float64(after.GroupCommitWaits-before.GroupCommitWaits),
		float64(after.GroupCommitRounds-before.GroupCommitRounds)))
	return recs, nil
}

// durableChurnOp registers a registration, grants the reader level 0 and
// deregisters it, each call inside a span.
func (l *layers) durableChurnOp(st *anonymizer.DurableStore, rec *recorder, root int32,
	region *rc.CloakedRegion, nLevels int) error {
	id := st.AllocateID()
	sp := rec.begin("durable.register", root)
	_, err := st.Register(anonymizer.NewDerivedRegistration(region, l.kr, l.epoch, id, nLevels, newPolicy(nLevels)))
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("durable.set_trust", root)
	err = st.SetTrust(id, requesterReader, 0)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("durable.deregister", root)
	err = st.Deregister(id)
	rec.end(sp)
	return err
}

// storeProbes registers n registrations, looks each up and deregisters
// each, one call at a time, and reports the mean of each call.
func (l *layers) storeProbes(m metrics, rec *recorder, st churnStore, prefix string, n int,
	region *rc.CloakedRegion, nLevels int) error {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = st.AllocateID()
	}
	calls := []struct {
		name string
		f    func(i int) error
	}{
		{"register", func(i int) error {
			_, err := st.Register(anonymizer.NewDerivedRegistration(region, l.kr, l.epoch, ids[i], nLevels, newPolicy(nLevels)))
			return err
		}},
		{"lookup", func(i int) error { _, err := st.Lookup(ids[i]); return err }},
		{"deregister", func(i int) error { return st.Deregister(ids[i]) }},
	}
	for _, c := range calls {
		d, err := probe(rec, prefix+"."+c.name, n, c.f)
		if err != nil {
			return err
		}
		if prefix == "durable" && c.name == "lookup" {
			continue // durable lookups are the in-memory table's; not a metric
		}
		m.set(prefix+"."+c.name+"_us", "us", d)
	}
	return nil
}

// printSelfTimes writes a per-span-name table of count, mean duration and
// mean self time to stderr.
func printSelfTimes(phase string, stats map[string]*selfStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %s spans (name count mean_us self_us)\n", phase)
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(os.Stderr, "  %-20s %8d %10.1f %10.1f\n", n, s.Count,
			float64(s.TotalNs)/1e3/float64(s.Count), float64(s.SelfNs)/1e3/float64(s.Count))
	}
	for layer, share := range layerShares(stats) {
		fmt.Fprintf(os.Stderr, "  share %-12s %.3f\n", layer, share)
	}
}
