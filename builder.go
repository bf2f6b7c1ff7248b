package polyfit

import (
	"fmt"

	"repro/internal/core"
)

// Spec declares what to index: the aggregate function and the data. The
// layout — static, dynamic, sharded — is chosen by Options passed to New,
// not by the type of the data.
type Spec struct {
	// Agg is the aggregate function (Count, Sum, Min, Max).
	Agg Agg
	// Keys are the record keys, sorted and strictly increasing.
	Keys []float64
	// Measures are the per-record measures; nil for Count (which ignores
	// them). SUM measures must be non-negative for the relative-error
	// guarantee.
	Measures []float64
}

// buildConfig is the resolved option set of one New call.
type buildConfig struct {
	epsAbs      float64
	delta       float64
	degree      int
	dynamic     bool
	shards      int
	parallelism int
	fallback    bool
	encoding    core.Encoding
}

// Option customises how New builds an index. Options with non-positive
// numeric arguments are no-ops, so a zero value always means "default".
type Option func(*buildConfig)

// WithMaxError sets the absolute error guarantee εabs. The build derives
// the fitting tolerance δ per the paper's lemmas (εabs/2 for COUNT/SUM,
// εabs for MIN/MAX). One of WithMaxError or WithDelta is required.
func WithMaxError(epsAbs float64) Option { return func(c *buildConfig) { c.epsAbs = epsAbs } }

// WithDelta overrides the derived fitting tolerance δ directly (used when
// the index mainly serves relative-error queries, e.g. the paper uses δ=50
// for 1D in Problem 2). Takes precedence over WithMaxError.
func WithDelta(delta float64) Option { return func(c *buildConfig) { c.delta = delta } }

// WithDegree sets the degree of the fitted polynomials (default 2 — the
// paper's PolyFit-2).
func WithDegree(degree int) Option {
	return func(c *buildConfig) {
		if degree > 0 {
			c.degree = degree
		}
	}
}

// WithDynamic makes the index insert-supporting: the built Index also
// implements Inserter (and, combined with WithShards, ShardSnapshotter).
// Inserts land in an exactly-aggregated delta buffer, so every error
// guarantee carries over unchanged.
func WithDynamic() Option { return func(c *buildConfig) { c.dynamic = true } }

// WithShards range-partitions the index into k contiguous shards queried
// scatter-gather; the built Index also implements Sharder. The composed
// COUNT/SUM bound 2δ·m for m touched shards is reported per answer in
// Result.Bound. k is clamped to [1, min(records, 4096)]; k ≤ 0 builds
// unsharded.
func WithShards(k int) Option { return func(c *buildConfig) { c.shards = k } }

// WithParallelism sets the number of goroutines used by index construction
// (and by later merge-rebuilds of dynamic indexes); values ≤ 1 build
// serially. The produced index is identical for every worker count, so this
// is purely a build-latency knob.
func WithParallelism(n int) Option { return func(c *buildConfig) { c.parallelism = n } }

// WithFallback controls whether the exact structures behind QueryRel are
// built (default true). Disable them to halve memory when the index only
// serves absolute-guarantee queries; relative-error queries then return
// ErrNoFallback whenever the approximate gate cannot certify the bound.
func WithFallback(enabled bool) Option { return func(c *buildConfig) { c.fallback = enabled } }

// WithEncoding pins the coefficient encoding instead of letting the build
// choose (EncAuto, the default). Every encoding preserves the certified δ
// guarantee: a forced compressed encoding that fails certification falls
// back to the next heavier one rather than weakening answers. Pin EncRaw to
// skip certification work at build time, or to keep the index bit-identical
// to the pre-encoding storage layout.
func WithEncoding(e Encoding) Option { return func(c *buildConfig) { c.encoding = e } }

// New builds a PolyFit index over spec with the given options — the single
// construction path for every one-key variant:
//
//	ix, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: keys},
//		polyfit.WithMaxError(100))                          // static
//	ix, err := polyfit.New(spec, polyfit.WithMaxError(100),
//		polyfit.WithDynamic(), polyfit.WithShards(8))       // insertable, 8 shards
//
// The returned Index answers Query/QueryRel/QueryBatch with the uniform
// Result contract regardless of layout; capabilities beyond that contract
// (Inserter, Sharder, ShardSnapshotter) are discoverable via type
// assertion. Errors wrap the package sentinels (ErrBadOptions,
// ErrAggMismatch, ErrEmptyKeys, ErrUnsortedKeys).
func New(spec Spec, opts ...Option) (Index, error) {
	cfg := buildConfig{fallback: true}
	for _, o := range opts {
		o(&cfg)
	}
	if spec.Agg < Count || spec.Agg > Max {
		return nil, fmt.Errorf("%w: unknown aggregate %v", ErrAggMismatch, spec.Agg)
	}
	delta := cfg.delta
	if delta <= 0 && cfg.epsAbs > 0 {
		delta = core.DeltaForAbs(spec.Agg, cfg.epsAbs)
	}
	if delta <= 0 {
		return nil, ErrBadOptions
	}
	copt := core.Options{
		Degree: cfg.degree, Delta: delta,
		NoFallback: !cfg.fallback, Parallelism: cfg.parallelism,
		Encoding: cfg.encoding,
	}
	keys, measures := spec.Keys, spec.Measures
	switch {
	case cfg.shards >= 1 && cfg.dynamic:
		inner, err := core.NewShardedDynamic(spec.Agg, keys, measures, cfg.shards, copt)
		if err != nil {
			return nil, err
		}
		return newShardedDynamicIndex(inner), nil
	case cfg.shards >= 1:
		inner, err := core.BuildSharded(spec.Agg, keys, measures, cfg.shards, copt)
		if err != nil {
			return nil, err
		}
		return newShardedIndex(inner), nil
	case cfg.dynamic:
		if spec.Agg == Count {
			// The dynamic state keeps the measures for merge-rebuilds; COUNT
			// ignores them, so synthesize zeros rather than requiring them.
			measures = make([]float64, len(keys))
		}
		inner, err := core.NewDynamic(spec.Agg, keys, measures, copt)
		if err != nil {
			return nil, err
		}
		return newDynamicIndex(inner), nil
	default:
		inner, err := core.Build(spec.Agg, keys, measures, copt)
		if err != nil {
			return nil, err
		}
		return newStaticIndex(inner), nil
	}
}
