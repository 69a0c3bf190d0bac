package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	rc "github.com/reversecloak/reversecloak"
)

// conns is the number of client connections; each runs a closed loop
// (its next op is sent only after the previous op's replies arrived).
const conns = 2

// op is one user action, drawn from the seed before anything is timed.
type op struct {
	user   rc.SegmentID // cloak-write: the user's segment
	pool   int          // reduce-read: index of the pool entry to read
	verify bool         // cloak-write: round-trip the keys before deregistering
}

// poolEntry is one preloaded reduce-read registration.
type poolEntry struct {
	id     string
	user   rc.SegmentID
	region *rc.CloakedRegion
}

// outcome is one executed op as the client saw it.
type outcome struct {
	latMs float64 // client time of the op's timed round trips; +Inf if it failed
	rtNs  int64   // client time of every round trip the op made
	ok    bool
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// setups is how many times a run launches the server; setup_s is the
	// median, and the last launch is the one measured.
	setups int
	// warmOps is the ops per connection run before the window opens.
	warmOps int
	// profile is the privacy profile of the op's anonymize (reduce-read:
	// of its preloaded pool).
	profile rc.Profile
	// poolSize is reduce-read's preloaded region count.
	poolSize int
	// zipfS is the skew of reduce-read's pool choice.
	zipfS float64
	// cacheBytes is the server's -reduce-cache-bytes (0 = off).
	cacheBytes int64
	// replayCap bounds the traced in-process replay, ops per connection.
	replayCap int
	// exec runs one op over the wire.
	exec func(e *env, c *rc.Client, o op, rec *recorder, root int32) outcome
}

func levels(kl ...int) rc.Profile {
	var p rc.Profile
	for i := 0; i+1 < len(kl); i += 2 {
		p.Levels = append(p.Levels, rc.Level{K: kl[i], L: kl[i+1]})
	}
	return p
}

// workloads are the benchmark's traffic mixes; README.md records why each
// was chosen and which per-layer numbers should move its end-to-end ones.
var workloads = map[string]*workload{
	"cloak-write": {
		name:   "cloak-write",
		setups: 5,
		// No warm-up ops: there is no cache to fill, and a few ops whose
		// keys land in the engine's heavy tail would swing setup_s by 50%.
		warmOps:   0,
		profile:   levels(20, 4, 40, 4, 80, 4),
		replayCap: 400,
		exec:      execCloakWrite,
	},
	"reduce-read": {
		name:       "reduce-read",
		setups:     3,
		warmOps:    2000,
		profile:    levels(10, 4, 20, 4, 40, 4),
		poolSize:   4000,
		zipfS:      1.05,
		cacheBytes: 64 << 10,
		replayCap:  30000,
		exec:       execReduceRead,
	},
}

const (
	requesterReader  = "reader"  // granted level 0 on every pool entry
	requesterAuditor = "auditor" // granted level 0 on cloak-write's verified sample
	verifyEvery      = 64        // cloak-write verifies one op in this many
)

// streamLen is the length of each connection's pre-generated op stream;
// a run that outlasts it wraps around.
const streamLen = 1 << 17

// genStreams draws each connection's op stream from the seed. Users are
// stratified: a stream walks seeded permutations of every segment, so each
// run covers the whole map evenly and the seed decides only the order.
func genStreams(wl *workload, seed int64, segments int) [][]op {
	streams := make([][]op, conns)
	for c := range streams {
		users := seededUsers(seed, int64(c)+1, streamLen, segments)
		rng := rand.New(rand.NewSource(seed*7919 + int64(c) + 101))
		var zipf *rand.Zipf
		if wl.poolSize > 0 {
			zipf = rand.NewZipf(rng, wl.zipfS, 1, uint64(wl.poolSize-1))
		}
		s := make([]op, streamLen)
		for i := range s {
			s[i] = op{user: users[i], verify: i%verifyEvery == verifyEvery-1}
			if zipf != nil {
				s[i].pool = int(zipf.Uint64())
			}
		}
		streams[c] = s
	}
	return streams
}

// seededUsers returns n user segments: consecutive seeded permutations of
// all segments. label separates the draws of different purposes (streams,
// pool) so one does not shift when another changes.
func seededUsers(seed int64, label int64, n, segments int) []rc.SegmentID {
	rng := rand.New(rand.NewSource(seed*7919 + label))
	out := make([]rc.SegmentID, 0, n+segments)
	for len(out) < n {
		for _, s := range rng.Perm(segments) {
			out = append(out, rc.SegmentID(s))
		}
	}
	return out[:n]
}

// timed runs one round trip inside a span and returns its client time.
func timed(rec *recorder, parent int32, name string, f func() error) (time.Duration, error) {
	sp := rec.begin(name, parent)
	t := time.Now()
	err := f()
	d := time.Since(t)
	rec.end(sp)
	return d, err
}

var inf = math.Inf(1)

func failed(rt time.Duration) outcome { return outcome{latMs: inf, rtNs: int64(rt)} }

// execCloakWrite: anonymize with the 3-level profile, then deregister.
// One op in verifyEvery also grants an auditor level 0, fetches its keys
// and peels the region locally before the deregister; those extra round
// trips are outside the op's latency.
func execCloakWrite(e *env, c *rc.Client, o op, rec *recorder, root int32) outcome {
	var (
		id     string
		region *rc.CloakedRegion
	)
	dA, err := timed(rec, root, "rt.anonymize", func() (err error) {
		id, region, err = c.Anonymize(o.user, e.wl.profile, "RGE")
		return err
	})
	rt := dA
	if err != nil {
		return failed(rt)
	}
	if !region.Contains(o.user) {
		e.wrongf("cloak-write: region %s does not contain user segment %d", id, o.user)
	}
	ok := true
	if o.verify {
		d, err := e.verifyRoundTrip(c, id, region, o.user, rec, root)
		rt += d
		ok = err == nil
	}
	dD, err := timed(rec, root, "rt.deregister", func() error { return c.Deregister(id) })
	rt += dD
	if err != nil || !ok {
		return failed(rt)
	}
	return outcome{latMs: ms(dA + dD), rtNs: int64(rt), ok: true}
}

// verifyRoundTrip grants the auditor level 0, fetches the keys it is
// entitled to and peels the published region locally: the result must be
// exactly the user's segment.
func (e *env) verifyRoundTrip(c *rc.Client, id string, region *rc.CloakedRegion,
	user rc.SegmentID, rec *recorder, root int32) (time.Duration, error) {
	var keys map[int][]byte
	d1, err := timed(rec, root, "rt.set_trust", func() error {
		return c.SetTrust(id, requesterAuditor, 0)
	})
	if err != nil {
		return d1, err
	}
	d2, err := timed(rec, root, "rt.request_keys", func() (err error) {
		keys, err = c.RequestKeys(id, requesterAuditor)
		return err
	})
	if err != nil {
		return d1 + d2, err
	}
	exact, err := e.reverse.Deanonymize(region, keys, 0)
	if err != nil {
		e.wrongf("cloak-write: region %s does not reverse with its granted keys: %v", id, err)
		return d1 + d2, nil
	}
	if !isExactly(exact, user) {
		e.wrongf("cloak-write: region %s reversed to %v, want [%d]", id, exact.Segments, user)
	}
	e.verified.Add(1)
	return d1 + d2, nil
}

// execReduceRead: one reduce to level 0 of a zipf-chosen pool region; the
// answer must be exactly the pool entry's user segment.
func execReduceRead(e *env, c *rc.Client, o op, rec *recorder, root int32) outcome {
	ent := &e.pool[o.pool]
	var (
		region *rc.CloakedRegion
		level  int
	)
	d, err := timed(rec, root, "rt.reduce", func() (err error) {
		region, level, err = c.Reduce(ent.id, requesterReader, 0)
		return err
	})
	if err != nil {
		return failed(d)
	}
	if level != 0 || !isExactly(region, ent.user) {
		e.wrongf("reduce-read: %s reduced to level %d %v, want level 0 [%d]",
			ent.id, level, region.Segments, ent.user)
	}
	return outcome{latMs: ms(d), rtNs: int64(d), ok: true}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func isExactly(r *rc.CloakedRegion, user rc.SegmentID) bool {
	return r != nil && len(r.Segments) == 1 && r.Segments[0] == user
}

// preloadPool registers reduce-read's pool: each entry anonymized with
// the pool profile and granted reader→level 0. Entries are spread over
// several pipelined callers per connection so both server cores work. A
// user segment that cannot be cloaked is replaced by the entry's next
// seeded candidate.
func (e *env) preloadPool(clients []*rc.Client) ([]poolEntry, error) {
	const callersPerConn = 4
	const candidates = 4
	users := seededUsers(e.o.seed, 1000, e.wl.poolSize*candidates, e.graph.NumSegments())
	pool := make([]poolEntry, e.wl.poolSize)
	callers := conns * callersPerConn
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := clients[g%conns]
			for j := g; j < len(pool); j += callers {
				var err error
				for a := 0; a < candidates; a++ {
					user := users[a*len(pool)+j]
					var (
						id     string
						region *rc.CloakedRegion
					)
					id, region, err = c.Anonymize(user, e.wl.profile, "RGE")
					if err != nil {
						continue
					}
					if !region.Contains(user) {
						e.wrongf("reduce-read preload: region %s does not contain user segment %d", id, user)
					}
					if err = c.SetTrust(id, requesterReader, 0); err != nil {
						break
					}
					pool[j] = poolEntry{id: id, user: user, region: region}
					break
				}
				if err != nil {
					errs[g] = fmt.Errorf("preloading pool entry %d: %w", j, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return pool, nil
}
