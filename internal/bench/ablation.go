package bench

import (
	"errors"
	"fmt"
	"time"

	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/metrics"
)

// E14TagAblation measures the two reversal regimes of cloak.LevelMeta.Tags: the
// tagless bounded search (paper-pure, zero metadata overhead) versus keyed
// disambiguation tags (collision regime). It sweeps k so regions cross from
// |CloakA| <= |CanA| into the collision regime and reports which mode the
// engine selected, the metadata overhead and the de-anonymization time.
func E14TagAblation(env *Env) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"E14 (ablation): tagless search vs disambiguation tags (RGE)",
		"k", "tagged levels", "meta bytes", "dean mean", "successes")
	ks := env.keysFor("e14", 1)
	for _, k := range []int{10, 40, 120, 240} {
		users := env.SampleUsers(env.Opts.Trials, fmt.Sprintf("e14/%d", k))
		prof := uniformProfile(1, k)
		var deanTime metrics.Stats
		var metaBytes metrics.Stats
		tagged, succ := 0, 0
		for _, u := range users {
			cr, _, err := env.RGE.Anonymize(cloak.Request{UserSegment: u, Profile: prof, Keys: ks})
			if errors.Is(err, cloak.ErrCloakFailed) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("bench: E14: %w", err)
			}
			succ++
			if cr.Levels[0].Tags != nil {
				tagged++
			}
			metaBytes.Add(float64(levelMetaBytes(cr)))
			start := time.Now()
			if _, err := env.RGE.Deanonymize(cr, keyMap(ks), 0); err != nil {
				return nil, fmt.Errorf("bench: E14 dean: %w", err)
			}
			deanTime.AddDuration(time.Since(start))
		}
		tab.AddRow(
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%d/%d", tagged, succ),
			fmt.Sprintf("%.0f", metaBytes.Mean()),
			metrics.FormatDuration(time.Duration(deanTime.Mean()*float64(time.Second))),
			fmt.Sprintf("%d/%d", succ, len(users)),
		)
	}
	return tab, nil
}

// levelMetaBytes measures the serialized metadata (levels only, not the
// segment set) of a region.
func levelMetaBytes(cr *cloak.CloakedRegion) int {
	raw, err := jsonMarshal(cr.Levels)
	if err != nil {
		return 0
	}
	return len(raw)
}

// E15ListLengthAblation sweeps RPLE's transition-list length T: larger
// lists raise the local walk's success rate (and memory) — the knob behind
// the paper's time/memory trade-off.
func E15ListLengthAblation(env *Env) (*metrics.Table, error) {
	tab := metrics.NewTable(
		"E15 (ablation): RPLE transition list length T (k=40)",
		"T", "success rate", "anonymize mean", "table memory")
	prof := uniformProfile(1, 40)
	ks := env.keysFor("e15", 1)
	users := env.SampleUsers(env.Opts.Trials, "e15")
	for _, t := range []int{8, 16, 32} {
		pre, err := cloak.NewPreassignment(env.G, t)
		if err != nil {
			return nil, fmt.Errorf("bench: E15 preassign: %w", err)
		}
		eng, err := cloak.NewEngine(env.G, env.Sim.UsersOn,
			cloak.Options{Algorithm: cloak.RPLE, Pre: pre})
		if err != nil {
			return nil, fmt.Errorf("bench: E15 engine: %w", err)
		}
		var tm metrics.Stats
		succ := 0
		for _, u := range users {
			start := time.Now()
			_, _, err := eng.Anonymize(cloak.Request{UserSegment: u, Profile: prof, Keys: ks})
			if errors.Is(err, cloak.ErrCloakFailed) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("bench: E15: %w", err)
			}
			succ++
			tm.AddDuration(time.Since(start))
		}
		tab.AddRow(
			fmt.Sprintf("%d", t),
			fmt.Sprintf("%.0f%%", 100*float64(succ)/float64(len(users))),
			metrics.FormatDuration(time.Duration(tm.Mean()*float64(time.Second))),
			metrics.FormatBytes(pre.MemoryBytes()),
		)
	}
	return tab, nil
}
