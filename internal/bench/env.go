// Package bench is the experiment harness: it regenerates every evaluation
// artifact of the paper (the experiments listed by Experiments) as printed
// tables, using the same workload model as the paper's demonstration
// (synthetic Atlanta-scale road network, Gaussian car placement,
// shortest-path routing).
//
// Experiments are deterministic given Options.Seed.
package bench

import (
	"fmt"
	"time"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/mapgen"
	"github.com/reversecloak/reversecloak/internal/prng"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
	"github.com/reversecloak/reversecloak/internal/trace"
)

// Options configures the harness.
type Options struct {
	// Seed drives every random choice. Required.
	Seed []byte
	// Junctions / Segments size the evaluation network. Defaults: a
	// quarter-scale Atlanta (1745 junctions, 2297 segments) to keep a full
	// harness run under a minute; pass the full 6979/9187 for paper scale.
	Junctions, Segments int
	// Cars sizes the workload; defaults to ~1.09 cars per segment, the
	// paper's 10,000-cars-on-9,187-segments density.
	Cars int
	// Trials is the number of sampled users per table cell. Default 15.
	Trials int
	// ListLength is RPLE's T. Default cloak.DefaultTransitionListLength.
	ListLength int
	// Only restricts a harness run to these experiment IDs (e.g. "E17");
	// empty runs everything. CI's bench-smoke step uses it to run just
	// the durability experiments with tiny trial counts.
	Only []string
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Junctions == 0 {
		o.Junctions = 1745
	}
	if o.Segments == 0 {
		o.Segments = 2297
	}
	if o.Cars == 0 {
		o.Cars = int(float64(o.Segments) * 1.088)
	}
	if o.Trials == 0 {
		o.Trials = 15
	}
	if o.ListLength == 0 {
		o.ListLength = cloak.DefaultTransitionListLength
	}
	return o
}

// Env is the shared experimental environment: one network, one workload,
// one engine per algorithm.
type Env struct {
	Opts Options
	G    *roadnet.Graph
	Sim  *trace.Simulation
	RGE  *cloak.Engine
	RPLE *cloak.Engine
	Pre  *cloak.Preassignment
	// PreBuildTime is how long the RPLE pre-assignment took (part of E5).
	PreBuildTime time.Duration
}

// NewEnv builds the environment.
func NewEnv(opts Options) (*Env, error) {
	opts = opts.withDefaults()
	if len(opts.Seed) == 0 {
		return nil, fmt.Errorf("bench: seed is required")
	}
	g, err := mapgen.Generate(mapgen.Config{
		Junctions: opts.Junctions,
		Segments:  opts.Segments,
		Spacing:   150,
		Seed:      opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: map: %w", err)
	}
	sim, err := trace.New(g, trace.Config{Cars: opts.Cars, Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("bench: workload: %w", err)
	}
	density := cloak.DensityFunc(sim.UsersOn)

	rge, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RGE})
	if err != nil {
		return nil, fmt.Errorf("bench: RGE engine: %w", err)
	}
	start := time.Now()
	pre, err := cloak.NewPreassignment(g, opts.ListLength)
	if err != nil {
		return nil, fmt.Errorf("bench: preassignment: %w", err)
	}
	preTime := time.Since(start)
	rple, err := cloak.NewEngine(g, density, cloak.Options{Algorithm: cloak.RPLE, Pre: pre})
	if err != nil {
		return nil, fmt.Errorf("bench: RPLE engine: %w", err)
	}
	return &Env{
		Opts:         opts,
		G:            g,
		Sim:          sim,
		RGE:          rge,
		RPLE:         rple,
		Pre:          pre,
		PreBuildTime: preTime,
	}, nil
}

// SampleUsers returns `n` deterministic sample user segments, biased toward
// occupied segments so cloaking requests resemble real requests.
func (e *Env) SampleUsers(n int, label string) []roadnet.SegmentID {
	cur := prng.NewCursor(prng.New(e.Opts.Seed, "bench/users/"+label))
	out := make([]roadnet.SegmentID, 0, n)
	for len(out) < n {
		sid := roadnet.SegmentID(cur.Intn(e.G.NumSegments()))
		out = append(out, sid)
	}
	return out
}

// Engine returns the engine for an algorithm.
func (e *Env) Engine(a cloak.Algorithm) *cloak.Engine {
	if a == cloak.RPLE {
		return e.RPLE
	}
	return e.RGE
}

// uniformProfile builds an n-level profile with the harness's standard
// shape: k doubling from baseK, l = k/3 (at least 2), unbounded tolerance.
func uniformProfile(n, baseK int) profile.Profile {
	p := profile.Profile{Levels: make([]profile.Level, n)}
	k := baseK
	for i := range p.Levels {
		l := k / 3
		if l < 2 {
			l = 2
		}
		p.Levels[i] = profile.Level{K: k, L: l}
		k *= 2
	}
	return p
}

// keysFor deterministically derives level keys for a trial.
func (e *Env) keysFor(label string, levels int) [][]byte {
	out := make([][]byte, levels)
	for i := range out {
		out[i] = prng.Derive(e.Opts.Seed, fmt.Sprintf("bench/key/%s/%d", label, i))
	}
	return out
}

// keyMap converts level keys into the map Deanonymize takes.
func keyMap(ks [][]byte) map[int][]byte {
	out := make(map[int][]byte, len(ks))
	for i, k := range ks {
		out[i+1] = k
	}
	return out
}
