package core

// The strategy heuristic of paper §VII-F: per-statement slicing is
// faster for roughly 70% of the measured configurations, so a query
// optimizer should choose PERST unless
//
//	(a) the transformation rules don't work for PERST
//	    (e.g. non-nested FETCHes),
//	(b) cursors are required on a per-period basis by PERST and the
//	    data set is large, or
//	(c) the query is on a small database and has a short temporal
//	    context.
type Features struct {
	// PerstTransformable is false when the PERST transform returned
	// ErrNotTransformable (clause a).
	PerstTransformable bool
	// UsesPerPeriodCursor reports per-period cursor processing in the
	// PERST translation (clause b).
	UsesPerPeriodCursor bool
	// TemporalRows counts the rows of the reachable temporal tables —
	// the "data set size" proxy.
	TemporalRows int
	// ContextDays is the length of the temporal context in granules.
	ContextDays int64
	// HasStats reports that the statistics registry supplied estimates
	// for this statement; the stats-informed clause fires only then, so
	// databases without statistics decide exactly as before.
	HasStats bool
	// EstConstantPeriods is the registry's estimate of the constant
	// periods MAX slicing would evaluate: distinct stored endpoints
	// strictly inside the context, plus one. Exact for single-table
	// statements; an upper bound across tables.
	EstConstantPeriods int64
	// EstRows is the registry's estimate of the stored fragments
	// overlapping the context.
	EstRows int64
}

// Thresholds calibrating "large data set" and "small database / short
// context" for clauses (b) and (c). They are exported so the benchmark
// harness can recalibrate them against measured crossovers.
// The values are calibrated against this engine's measured crossovers
// (see EXPERIMENTS.md): clause (c)'s short-context rule applies broadly
// because the stratum computes constant periods natively, making MAX's
// fixed cost lower than it was on DB2.
var (
	// LargeRowsThreshold is the data-set size above which per-period
	// cursors make PERST lose (clause b).
	LargeRowsThreshold = 10_000
	// SmallRowsThreshold and ShortContextDays bound clause (c): on a
	// small database with a short temporal context the constant-period
	// overhead is low and MAX's simpler statements win.
	SmallRowsThreshold = 50_000
	ShortContextDays   = int64(7)
	// FewPeriodsThreshold bounds the stats-informed clause: when the
	// registry estimates at most this many constant periods, MAX
	// evaluates the statement a handful of times and its simpler
	// per-period statements win regardless of context length.
	FewPeriodsThreshold = int64(4)
)

// Reason labels which clause of the §VII-F heuristic decided the
// strategy; the observability layer records it so a strategy choice is
// explainable after the fact (EXPLAIN output, stratum.auto.* metrics).
type Reason string

// The heuristic's decision reasons.
const (
	// ReasonNotTransformable: clause (a) — the PERST transformation
	// rules do not apply, MAX is the only option.
	ReasonNotTransformable Reason = "perst_not_transformable"
	// ReasonPerPeriodCursor: clause (b) — PERST would process cursors
	// per period on a large data set.
	ReasonPerPeriodCursor Reason = "per_period_cursor"
	// ReasonShortContext: clause (c) — small database and short
	// temporal context make MAX's fixed cost negligible.
	ReasonShortContext Reason = "short_context"
	// ReasonStatsFewPeriods: the statistics registry estimates so few
	// constant periods that MAX's per-period evaluation count is
	// trivially small. A stats-informed refinement of clause (c): it
	// fires on period count where (c) fires on context length.
	ReasonStatsFewPeriods Reason = "stats_few_periods"
	// ReasonDefault: none of the clauses fired; PERST wins ~70% of the
	// measured configurations.
	ReasonDefault Reason = "perst_default"
	// ReasonProbeError: the PERST probe translation failed with an
	// error other than ErrNotTransformable; the stratum conservatively
	// picks MAX. (Recorded by the stratum, never returned by Choose.)
	ReasonProbeError Reason = "perst_probe_error"
)

// Choose applies the §VII-F heuristic.
func Choose(f Features) Strategy {
	s, _ := ChooseExplained(f)
	return s
}

// ChooseExplained applies the §VII-F heuristic and reports which
// clause decided.
func ChooseExplained(f Features) (Strategy, Reason) {
	if !f.PerstTransformable {
		return StrategyMax, ReasonNotTransformable // (a)
	}
	if f.UsesPerPeriodCursor && f.TemporalRows >= LargeRowsThreshold {
		return StrategyMax, ReasonPerPeriodCursor // (b)
	}
	if f.TemporalRows <= SmallRowsThreshold && f.ContextDays <= ShortContextDays {
		return StrategyMax, ReasonShortContext // (c)
	}
	if f.HasStats && f.EstConstantPeriods > 0 && f.EstConstantPeriods <= FewPeriodsThreshold {
		return StrategyMax, ReasonStatsFewPeriods
	}
	return StrategyPerStatement, ReasonDefault
}
