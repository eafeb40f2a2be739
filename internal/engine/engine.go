// Package engine abstracts cube access behind a CubeSource so query
// layers (compare, gi, the public Session API, the opmapd daemon) no
// longer care whether cubes were pre-materialized or are built on
// demand. The paper's deployed system pre-computes every rule cube
// offline (Section V.C); COMPARE (arXiv:2107.11967) and Smart
// Drill-Down (arXiv:1412.0364) observe that interactive comparison
// workloads touch a small, skewed subset of the cube lattice and are
// dominated by repeated overlapping aggregates — so the production
// shape is lazy materialization with caching, which LazySource
// provides, while Eager wraps the existing rulecube.Store unchanged.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"opmap/internal/dataset"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
)

// Metric names recorded by the engine layer. The 2-D cube cache (the
// byte-budgeted LRU inside LazySource) owns the cube_cache family;
// result-cache counters are advanced by ResultCache. All are plain
// counters/gauges in the obsv default registry so they surface on
// opmapd's /metrics endpoint.
const (
	// CubeCacheHitsCounterName counts 2-D cube requests served from the
	// LRU without a build.
	CubeCacheHitsCounterName = "opmap_cube_cache_hits_total"
	// CubeCacheMissesCounterName counts 2-D cube requests that had to
	// materialize (or join an in-flight materialization of) the cube.
	CubeCacheMissesCounterName = "opmap_cube_cache_misses_total"
	// CubeCacheEvictionsCounterName counts cubes dropped from the LRU to
	// satisfy the byte budget.
	CubeCacheEvictionsCounterName = "opmap_cube_cache_evictions_total"
	// CubeCacheBytesGaugeName tracks resident 2-D cube bytes in the LRU.
	CubeCacheBytesGaugeName = "opmap_cube_cache_bytes"
	// LazyBuildHistogramName times each on-demand cube build (1-D and
	// 2-D) performed by a LazySource — the user-facing cold-path cost.
	LazyBuildHistogramName = "opmap_lazy_build_seconds"
	// ResultCacheHitsCounterName / ResultCacheMissesCounterName count
	// query-result cache lookups (Compare/Sweep/Impressions).
	ResultCacheHitsCounterName   = "opmap_result_cache_hits_total"
	ResultCacheMissesCounterName = "opmap_result_cache_misses_total"
	// ResultCacheInvalidationsCounterName counts cached results removed
	// by per-attribute epoch bumps when appended rows touched an
	// attribute the result depended on.
	ResultCacheInvalidationsCounterName = "opmap_resultcache_invalidations_total"
	// BatchBuildHistogramName times each shared-scan batch build a
	// LazySource performs for a bulk Cubes request — one observation per
	// scan, however many cubes it materialized.
	BatchBuildHistogramName = "opmap_batch_build_seconds"
)

// PreRegister creates every engine metric series in reg at zero so
// servers expose them before the first query touches them (the ci
// smoke asserts `opmap_cube_cache_misses_total 0` on a freshly started
// lazy daemon). Each name is the constant itself, so the registration
// site stays greppable and the metricname analyzer can check it.
func PreRegister(reg *obsv.Registry) {
	reg.Counter(CubeCacheHitsCounterName)
	reg.Counter(CubeCacheMissesCounterName)
	reg.Counter(CubeCacheEvictionsCounterName)
	reg.Counter(ResultCacheHitsCounterName)
	reg.Counter(ResultCacheMissesCounterName)
	reg.Counter(ResultCacheInvalidationsCounterName)
	reg.Gauge(CubeCacheBytesGaugeName)
	reg.Histogram(LazyBuildHistogramName, nil)
	reg.Histogram(BatchBuildHistogramName, nil)
}

// CubeSource is the engine contract: read access to the rule cubes of
// one dataset snapshot, from the 1-D (attribute × class) cubes up to
// arbitrary attribute sets. Implementations must be safe for
// concurrent use. Cube2 accepts the pair in either order and returns
// the cube with min(a,b) as its first condition dimension, matching
// rulecube.Store.Cube2. A source never returns (nil, nil): an
// unavailable cube is an error.
type CubeSource interface {
	// Dataset returns the (discretized) dataset the cubes are counted
	// over.
	Dataset() *dataset.Dataset
	// Attrs returns the servable attribute indices in ascending order.
	// Callers must not modify the slice.
	Attrs() []int
	// Cube1 returns the 2-D cube (attr × class).
	Cube1(ctx context.Context, attr int) (*rulecube.Cube, error)
	// Cube2 returns the 3-D cube over the attribute pair.
	Cube2(ctx context.Context, a, b int) (*rulecube.Cube, error)
	// CubeN returns the cube over an arbitrary attribute set (no
	// duplicates, any order). The returned cube's condition dimensions
	// are the set in ascending attribute order, so any permutation of
	// the same set is one cube. len(attrs) == 1 matches Cube1 and
	// len(attrs) == 2 matches Cube2; k ≥ 3 serves the multi-condition
	// drill-down path.
	CubeN(ctx context.Context, attrs []int) (*rulecube.Cube, error)
	// Cubes resolves a batch of cube requests at once, returning the
	// cubes in request order. Each request is an attribute set, read as
	// CubeN reads it (any order; an empty set is an error). A lazy
	// source answers every cache miss from one shared dataset scan
	// (rulecube.BuildMany) instead of one scan per cube; an eager
	// source answers from the store. Callers that know their full cube
	// needs up front declare them here rather than faulting cubes in
	// one at a time: every pairwise and one-vs-rest comparison fetches
	// its whole working set in one call (so a one-vs-rest over all
	// values scans once, on its first value), a sweep declares its set
	// before screening, and drill-down declares each frontier
	// expansion.
	Cubes(ctx context.Context, reqs [][]int) ([]*rulecube.Cube, error)
}

// ErrRowsNotHeld is the error of a k ≥ 3 cube request on a source
// whose counts cover rows its dataset does not hold — a store restored
// from a snapshot or a persisted cube file. No store materializes k ≥ 3
// cubes and they cannot be derived from pairs, so counting one over
// the rows at hand would be an answer over the wrong population.
var ErrRowsNotHeld = errors.New("engine: cube counts cover rows the dataset does not hold; cubes over three or more attributes cannot be counted")

// Eager adapts a fully materialized rulecube.Store to CubeSource. For
// the 1-D and 2-D cubes the store pre-materializes it performs no
// builds: a cube the store lacks is an error, preserving the pre-PR
// behaviour of the compare and gi layers. k ≥ 3 requests — which no
// store materializes — are served by an internal lazy source over the
// store's dataset, created on first use, so eager sessions get
// drill-down with the same byte-budgeted caching as lazy ones. A
// restored store (NewRestoredEager) refuses them with ErrRowsNotHeld.
type Eager struct {
	store *rulecube.Store
	// restored marks a store whose counts were read, not counted from
	// its dataset's rows.
	restored bool

	ndMu sync.Mutex
	nd   *LazySource // lazily created for k ≥ 3 cubes
}

// NewEager wraps store, whose counts cover exactly its dataset's rows.
// A nil store yields a source whose every cube lookup errors (callers
// construct sources before cubes exist only in tests).
func NewEager(store *rulecube.Store) *Eager { return &Eager{store: store} }

// NewRestoredEager wraps a store whose counts were restored (from a
// snapshot, shard snapshots or a persisted cube file) and so cover
// rows its dataset does not hold: k ≥ 3 requests fail with
// ErrRowsNotHeld.
func NewRestoredEager(store *rulecube.Store) *Eager {
	return &Eager{store: store, restored: true}
}

// Store returns the wrapped store, for eager-only operations
// (persistence, baseline exploration, visual rendering).
func (e *Eager) Store() *rulecube.Store { return e.store }

// Dataset implements CubeSource.
func (e *Eager) Dataset() *dataset.Dataset {
	if e.store == nil {
		return nil
	}
	return e.store.Dataset()
}

// Attrs implements CubeSource.
func (e *Eager) Attrs() []int {
	if e.store == nil {
		return nil
	}
	return e.store.Attrs()
}

// Cube1 implements CubeSource.
func (e *Eager) Cube1(_ context.Context, attr int) (*rulecube.Cube, error) {
	if e.store == nil {
		return nil, fmt.Errorf("engine: no cube store")
	}
	c := e.store.Cube1(attr)
	if c == nil {
		return nil, fmt.Errorf("engine: no cube for attribute %d", attr)
	}
	return c, nil
}

// Cube2 implements CubeSource.
func (e *Eager) Cube2(_ context.Context, a, b int) (*rulecube.Cube, error) {
	if e.store == nil {
		return nil, fmt.Errorf("engine: no cube store")
	}
	c := e.store.Cube2(a, b)
	if c == nil {
		return nil, fmt.Errorf("engine: no pair cube for attributes (%d,%d)", a, b)
	}
	return c, nil
}

// CubeN implements CubeSource: 1-D and 2-D sets answer from the store;
// k ≥ 3 sets materialize through the internal lazy source.
func (e *Eager) CubeN(ctx context.Context, attrs []int) (*rulecube.Cube, error) {
	switch len(attrs) {
	case 0:
		return nil, fmt.Errorf("engine: empty attribute set in cube request")
	case 1:
		return e.Cube1(ctx, attrs[0])
	case 2:
		if attrs[0] == attrs[1] {
			return nil, fmt.Errorf("engine: pair cube needs two distinct attributes, got (%d,%d)", attrs[0], attrs[1])
		}
		return e.Cube2(ctx, attrs[0], attrs[1])
	}
	nd, err := e.ndSource()
	if err != nil {
		return nil, err
	}
	return nd.CubeN(ctx, attrs)
}

// ndSource returns (creating on first use) the internal lazy source
// serving k ≥ 3 cubes over the store's dataset and attribute set.
func (e *Eager) ndSource() (*LazySource, error) {
	if e.store == nil {
		return nil, fmt.Errorf("engine: no cube store")
	}
	if e.restored {
		return nil, ErrRowsNotHeld
	}
	e.ndMu.Lock()
	defer e.ndMu.Unlock()
	if e.nd == nil {
		src, err := NewLazy(e.store.Dataset(), LazyOptions{Attrs: e.store.Attrs()})
		if err != nil {
			return nil, err
		}
		e.nd = src
	}
	return e.nd, nil
}

// Cubes implements CubeSource: 1-D and 2-D cubes are already
// materialized, so those requests are store lookups; k ≥ 3 requests
// are forwarded as one bulk request to the internal lazy source so
// its cache misses share a single dataset scan.
func (e *Eager) Cubes(ctx context.Context, reqs [][]int) ([]*rulecube.Cube, error) {
	out := make([]*rulecube.Cube, len(reqs))
	var ndPos []int
	var ndReqs [][]int
	for i, attrs := range reqs {
		if len(attrs) >= 3 {
			ndPos = append(ndPos, i)
			ndReqs = append(ndReqs, attrs)
			continue
		}
		c, err := e.CubeN(ctx, attrs)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	if len(ndReqs) > 0 {
		nd, err := e.ndSource()
		if err != nil {
			return nil, err
		}
		cubes, err := nd.Cubes(ctx, ndReqs)
		if err != nil {
			return nil, err
		}
		for j, pos := range ndPos {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out[pos] = cubes[j]
		}
	}
	return out, nil
}

// FoldRows adds rows [lo, hi) — appended after the cubes were counted
// — into the store's cubes and the resident k ≥ 3 cubes, through the
// counting kernel (rulecube.FoldRows). Callers must ensure no query
// reads cube counts concurrently (the Session ingest lock provides
// this).
func (e *Eager) FoldRows(ctx context.Context, lo, hi int) error {
	if e.store == nil {
		return nil
	}
	if err := e.store.FoldRows(ctx, lo, hi); err != nil {
		return err
	}
	e.ndMu.Lock()
	nd := e.nd
	e.ndMu.Unlock()
	if nd == nil {
		return nil
	}
	return nd.FoldRows(ctx, lo, hi)
}

// Close releases the internal k ≥ 3 cache, if one was created (see
// LazySource.Close), and forgets it: a later k ≥ 3 request counts
// afresh over the dataset's rows. The store itself holds no shared
// accounting. A session that changes the store's counts without
// folding rows through FoldRows (a shard merge) closes the source so
// no stale k ≥ 3 cube outlives the change.
func (e *Eager) Close() {
	e.ndMu.Lock()
	defer e.ndMu.Unlock()
	if e.nd != nil {
		e.nd.Close()
		e.nd = nil
	}
}

// normalizeAttrs validates and defaults a source attribute list the
// same way rulecube.BuildStoreContext does: nil means every non-class
// attribute; explicit lists must not contain the class or duplicates.
func normalizeAttrs(ds *dataset.Dataset, attrs []int) ([]int, error) {
	if attrs == nil {
		for a := 0; a < ds.NumAttrs(); a++ {
			if a != ds.ClassIndex() {
				attrs = append(attrs, a)
			}
		}
		return attrs, nil
	}
	attrs = append([]int(nil), attrs...)
	seen := make(map[int]bool, len(attrs))
	for _, a := range attrs {
		if a < 0 || a >= ds.NumAttrs() {
			return nil, fmt.Errorf("engine: attribute index %d out of range", a)
		}
		if a == ds.ClassIndex() {
			return nil, fmt.Errorf("engine: class attribute in source attribute list")
		}
		if seen[a] {
			return nil, fmt.Errorf("engine: duplicate attribute %d", a)
		}
		seen[a] = true
	}
	sort.Ints(attrs)
	return attrs, nil
}
