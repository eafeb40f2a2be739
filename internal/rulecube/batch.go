package rulecube

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"opmap/internal/dataset"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
)

// The counting kernel (DESIGN.md §14). Every path that turns rows into
// cube cells — Build, the store build, lazy on-demand and bulk builds,
// and streaming ingest — goes through the shared scan below: one
// scratch accumulator per distinct cube (all windows of one array), a
// branch-free inner loop, and an extraction step that adds the counted
// cells into a destination cube — a fresh one for a build, the
// resident one for a fold — and derives 1-D marginals from pair
// scratch for free. COMPARE (arXiv:2107.11967) observes that groupwise
// comparisons share one scan and one aggregation pass this way instead
// of carrying per-pair state through separate scans.

// CubeScansCounterName counts full dataset passes performed to count
// cubes: one per BuildMany call (Build and a store build included),
// however many cubes that one scan produced. The ratio of
// opmap_cubes_built_total to this counter is the shared-scan
// amplification.
const CubeScansCounterName = "opmap_cube_scans_total"

// batchShardRows is the minimum number of rows each parallel scan
// shard must cover before BuildMany splits the pass; below that the
// per-shard scratch allocation and merge cost more than they save.
const batchShardRows = 1 << 16

// pairPlan accumulates one pair cube during the shared scan. In plan
// coordinates a is the pair's head attribute and b its partner; the
// scratch array is laid out (dimB+1) × (dimA+1) × numClasses — b
// outermost, so a row's cell is its b term plus an (a, class) term that
// every pair with the same head shares (see pairHead). The head is the
// request's first attribute unless flip is set: then the request was
// (b, a), and extraction transposes back to that dimension order. Slot
// 0 of each condition dimension catches missing values (code -1 lands
// there via the +1 shift), which keeps the inner loop branch-free and —
// since a row with a present class is counted *somewhere* in the array
// — lets extraction marginalize a dimension across all its slots to
// reproduce the other dimension's exact 1-D cube without extra scan
// work.
type pairPlan struct {
	a, b       int
	flip       bool // the requested cube is (b, a)
	colB       []int32
	dimA, dimB int
	strideB    int // (dimA+1) * numClasses
	scratch    []int64
}

// pairHead groups the pair plans sharing a head attribute: the scan
// computes their common (a, class) term once per row block. planBatch
// makes the more frequent attribute of each requested pair its head,
// so pairs that share either attribute — a compare's (split,
// candidate) pairs, normalized to ascending order by lazy sources —
// land under one head.
type pairHead struct {
	a     int
	col   []int32
	pairs []int // indices into batchPlan.pairs
}

// onePlan accumulates a 1-D cube that no requested pair covers; its
// scratch is (dim+1) × numClasses with the same missing slot 0.
type onePlan struct {
	a       int
	col     []int32
	dim     int
	scratch []int64
}

// kPlan accumulates one k-D cube (k ≥ 3) during the shared scan. Its
// scratch generalizes the pair layout: Π(dim_i+1) × numClasses with
// slot 0 of every condition dimension catching missing values, so the
// inner loop stays branch-free at any arity.
type kPlan struct {
	attrs   []int
	cols    [][]int32
	dims    []int
	strides []int // strides[i] = numClasses × Π_{j>i}(dims[j]+1)
	scratch []int64
}

// routeKind names the accumulator a request's cube is extracted from.
type routeKind uint8

const (
	routePair    routeKind = iota // pairs[i], in the requested order
	routeDerived                  // marginal of pairs[i] at dimension pos
	routeOne                      // ones[i]
	routeK                        // ks[i]
)

// route sends one request's cube to its accumulator. slot numbers the
// plan's distinct cubes: duplicate requests share a slot.
type route struct {
	kind   routeKind
	i, pos int
	slot   int
}

// maxBatchScratchCells bounds one k-D plan's scratch allocation: a
// request whose (dim+1)-product exceeds it is rejected up front rather
// than attempted. Callers that budget cache bytes (the lazy engine)
// reject such cubes earlier via EstimateCubeBytes; this guard protects
// direct BuildMany users from runaway allocations.
const maxBatchScratchCells = 1 << 31

// cubeDim sizes a cube dimension: an attribute with an empty domain
// still needs one slot.
func cubeDim(ds *dataset.Dataset, a int) int {
	card := ds.Cardinality(a)
	if card == 0 {
		card = 1
	}
	return card
}

// BuildMany counts every requested cube in one pass over ds (plus a
// cells-proportional extraction), advancing the scan counter once and
// the cubes-built counter per distinct cube; when hot metrics are
// armed (obsv.ArmHot) the call's duration is observed once. Each
// request is an ordered list of condition attributes — the cube's
// dimension order — and results arrive in request order; duplicate
// requests share one underlying cube. The scan parallelizes across
// GOMAXPROCS row shards when the dataset is large enough (counts are
// additive, so shard partials merge by summation), and it observes
// cancellation between row blocks, so a cancel is answered within one
// block at any data size.
func BuildMany(ctx context.Context, ds *dataset.Dataset, reqs [][]int) ([]*Cube, error) {
	if err := validateReqs(ds, reqs); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := faultinject.HitContext(ctx, faultinject.SiteCubeBatch); err != nil {
		return nil, err
	}
	var (
		h     *obsv.Histogram
		start time.Time
	)
	if obsv.HotArmed() {
		h = obsv.Default().Histogram(obsv.CubeBuildHistogramName, nil)
		start = time.Now()
	}
	out, built, err := countRange(ctx, ds, reqs, 0, ds.NumRows())
	if err != nil {
		return nil, err
	}
	if h != nil {
		h.ObserveSince(start)
	}
	obsv.Default().Counter(CubesBuiltCounterName).Add(int64(built))
	obsv.Default().Counter(CubeScansCounterName).Inc()
	return out, nil
}

// validateReqs rejects continuous datasets and empty, out-of-range,
// class-dimension and duplicate-attribute requests before any
// allocation.
func validateReqs(ds *dataset.Dataset, reqs [][]int) error {
	if !ds.AllCategorical() {
		return fmt.Errorf("rulecube: dataset has continuous attributes; discretize first")
	}
	classIdx := ds.ClassIndex()
	for _, attrs := range reqs {
		if len(attrs) == 0 {
			return fmt.Errorf("rulecube: empty attribute list in cube request")
		}
		for i, a := range attrs {
			if a < 0 || a >= ds.NumAttrs() {
				return fmt.Errorf("rulecube: attribute index %d out of range", a)
			}
			if a == classIdx {
				return fmt.Errorf("rulecube: class attribute cannot be a condition dimension")
			}
			for _, b := range attrs[:i] {
				if a == b {
					return fmt.Errorf("rulecube: duplicate attribute %d", a)
				}
			}
		}
	}
	return nil
}

// countRange is the kernel behind BuildMany: it counts rows [lo, hi)
// of ds into one fresh cube per distinct (validated) request and
// reports how many distinct cubes it produced. It advances no metric;
// callers decide what the pass means.
func countRange(ctx context.Context, ds *dataset.Dataset, reqs [][]int, lo, hi int) ([]*Cube, int, error) {
	plan, err := planBatch(ds, ds.NumClasses(), reqs)
	if err != nil {
		return nil, 0, err
	}
	if err := scanAll(ctx, ds.Column(ds.ClassIndex()).Codes, plan, lo, hi); err != nil {
		return nil, 0, err
	}
	return extractAll(ds, reqs, plan), plan.slots, nil
}

// batchPlan is the deduplicated working set of one shared scan: one
// pairPlan per distinct pair, one onePlan per 1-D request no pair
// covers, one kPlan per distinct k ≥ 3 request, and a route per
// request from its cube to its accumulator. Every accumulator's
// scratch is a window of one backing array, buf.
type batchPlan struct {
	nc     int
	pairs  []pairPlan
	heads  []pairHead
	ones   []onePlan
	ks     []kPlan
	routes []route // one per request, in request order
	slots  int     // distinct cubes
	buf    []int64
	idx    []int // scanRange's per-row partial cell indexes of one block
}

// kKey is the dedup key of a k-D request: its exact ordered dimension
// list (order fixes the cube's dimension order, so [a b c] and
// [b a c] are distinct cubes).
func kKey(attrs []int) string { return fmt.Sprint(attrs) }

// planBatch dedupes the requests into scan plans by arity — pairs and
// k ≥ 3 requests first, then 1-D requests, routed through a covering
// pair's scratch whenever one exists. Each distinct pair's head is the
// attribute that appears in more of the distinct pair requests (a tie
// keeps the request's first attribute), so an all-pairs store build,
// where every attribute ties, keeps request order. The plan comes back
// bound to ds's columns with zeroed scratch.
func planBatch(ds *dataset.Dataset, nc int, reqs [][]int) (*batchPlan, error) {
	p := &batchPlan{nc: nc, routes: make([]route, len(reqs))}
	pairIdx := make(map[[2]int]int)
	kIdx := make(map[string]int)
	pairs := make([][2]int, 0, len(reqs))
	freq := make([]int, ds.NumAttrs())
	for i, attrs := range reqs {
		switch {
		case len(attrs) == 2:
			k := [2]int{attrs[0], attrs[1]}
			pi, ok := pairIdx[k]
			if !ok {
				pi = len(pairs)
				pairIdx[k] = pi
				pairs = append(pairs, k)
				freq[k[0]]++
				freq[k[1]]++
			}
			p.routes[i] = route{kind: routePair, i: pi, slot: pi}
		case len(attrs) >= 3:
			key := kKey(attrs)
			ki, ok := kIdx[key]
			if !ok {
				if err := p.addK(ds, nc, attrs); err != nil {
					return nil, err
				}
				ki = len(p.ks) - 1
				kIdx[key] = ki
			}
			p.routes[i] = route{kind: routeK, i: ki}
		}
	}
	for _, k := range pairs {
		p.addPair(ds, nc, k, freq[k[1]] > freq[k[0]])
	}
	p.slots = len(p.pairs) + len(p.ks)
	oneRoutes := make(map[int]route)
	for i, attrs := range reqs {
		switch {
		case len(attrs) >= 3:
			p.routes[i].slot = len(p.pairs) + p.routes[i].i
		case len(attrs) == 1:
			r, ok := oneRoutes[attrs[0]]
			if !ok {
				r = p.addOne(ds, attrs[0])
				r.slot = p.slots
				p.slots++
				oneRoutes[attrs[0]] = r
			}
			p.routes[i] = r
		}
	}
	p.alloc()
	p.bind(ds)
	return p, nil
}

// addPair appends the plan of the requested pair k, headed by k[1]
// when flip is set and by k[0] otherwise.
func (p *batchPlan) addPair(ds *dataset.Dataset, nc int, k [2]int, flip bool) {
	a, b := k[0], k[1]
	if flip {
		a, b = b, a
	}
	dimA, dimB := cubeDim(ds, a), cubeDim(ds, b)
	h := 0
	for h < len(p.heads) && p.heads[h].a != a {
		h++
	}
	if h == len(p.heads) {
		p.heads = append(p.heads, pairHead{a: a})
	}
	p.heads[h].pairs = append(p.heads[h].pairs, len(p.pairs))
	p.pairs = append(p.pairs, pairPlan{
		a: a, b: b, flip: flip,
		dimA: dimA, dimB: dimB,
		strideB: (dimA + 1) * nc,
	})
}

// addK registers the k-D plan for the ordered list attrs.
func (p *batchPlan) addK(ds *dataset.Dataset, nc int, attrs []int) error {
	kp := kPlan{attrs: append([]int(nil), attrs...), cols: make([][]int32, len(attrs))}
	cells := int64(nc)
	for _, a := range attrs {
		d := cubeDim(ds, a)
		kp.dims = append(kp.dims, d)
		if cells > maxBatchScratchCells/int64(d+1) {
			return fmt.Errorf("rulecube: cube over attributes %v too large to count (> %d scratch cells)", attrs, int64(maxBatchScratchCells))
		}
		cells *= int64(d + 1)
	}
	kp.strides = make([]int, len(attrs))
	stride := nc
	for i := len(attrs) - 1; i >= 0; i-- {
		kp.strides[i] = stride
		stride *= kp.dims[i] + 1
	}
	p.ks = append(p.ks, kp)
	return nil
}

// addOne routes a 1-D request for a through a covering pair plan, or
// registers a dedicated 1-D plan when no pair covers it.
func (p *batchPlan) addOne(ds *dataset.Dataset, a int) route {
	if pos := findPairFor(p.pairs, a); pos[0] >= 0 {
		return route{kind: routeDerived, i: pos[0], pos: pos[1]}
	}
	p.ones = append(p.ones, onePlan{a: a, dim: cubeDim(ds, a)})
	return route{kind: routeOne, i: len(p.ones) - 1}
}

// alloc backs every accumulator's scratch with one zeroed array.
func (p *batchPlan) alloc() {
	n := 0
	p.eachScratch(func(_ *[]int64, cells int) { n += cells })
	p.buf = make([]int64, n)
	off := 0
	p.eachScratch(func(scratch *[]int64, cells int) {
		*scratch = p.buf[off : off+cells : off+cells]
		off += cells
	})
}

// eachScratch visits every accumulator's scratch slice with its cell
// count: a pair's is (dimA+1)(dimB+1) × nc cells, a 1-D plan's
// (dim+1) × nc, a k-D plan's Π(dim_i+1) × nc.
func (p *batchPlan) eachScratch(f func(scratch *[]int64, cells int)) {
	for i := range p.pairs {
		pp := &p.pairs[i]
		f(&pp.scratch, pp.strideB*(pp.dimB+1))
	}
	for i := range p.ones {
		o := &p.ones[i]
		f(&o.scratch, (o.dim+1)*p.nc)
	}
	for i := range p.ks {
		kp := &p.ks[i]
		f(&kp.scratch, kp.strides[0]*(kp.dims[0]+1))
	}
}

// bind points the plan's column slices at ds's current columns.
// Appending rows can move a column's backing array, so a plan kept
// across folds rebinds before each scan.
func (p *batchPlan) bind(ds *dataset.Dataset) {
	for i := range p.heads {
		p.heads[i].col = ds.Column(p.heads[i].a).Codes
	}
	for i := range p.pairs {
		p.pairs[i].colB = ds.Column(p.pairs[i].b).Codes
	}
	for i := range p.ones {
		p.ones[i].col = ds.Column(p.ones[i].a).Codes
	}
	for i := range p.ks {
		for d, a := range p.ks[i].attrs {
			p.ks[i].cols[d] = ds.Column(a).Codes
		}
	}
}

// fits reports whether the plan's dimensions still match ds's
// dictionaries; appended rows that registered a label or class make a
// kept plan stale.
func (p *batchPlan) fits(ds *dataset.Dataset) bool {
	if p.nc != ds.NumClasses() {
		return false
	}
	for i := range p.pairs {
		if p.pairs[i].dimA != cubeDim(ds, p.pairs[i].a) || p.pairs[i].dimB != cubeDim(ds, p.pairs[i].b) {
			return false
		}
	}
	for i := range p.ones {
		if p.ones[i].dim != cubeDim(ds, p.ones[i].a) {
			return false
		}
	}
	for i := range p.ks {
		for d, a := range p.ks[i].attrs {
			if p.ks[i].dims[d] != cubeDim(ds, a) {
				return false
			}
		}
	}
	return true
}

// extractAll materializes each distinct cube once from the counted
// scratch; duplicate requests share the pointer.
func extractAll(ds *dataset.Dataset, reqs [][]int, plan *batchPlan) []*Cube {
	out := make([]*Cube, len(reqs))
	bySlot := make([]*Cube, plan.slots)
	for i, r := range plan.routes {
		c := bySlot[r.slot]
		if c == nil {
			c = newCubeHeader(ds, reqs[i], plan.nc)
			plan.extract(r, c)
			bySlot[r.slot] = c
		}
		out[i] = c
	}
	return out
}

// findPairFor locates a pair plan covering attribute a, returning its
// index and the dimension position a occupies in plan coordinates (0
// for the head, 1 for the partner), or {-1, -1}.
func findPairFor(pairs []pairPlan, a int) [2]int {
	for pi := range pairs {
		if pairs[pi].a == a {
			return [2]int{pi, 0}
		}
		if pairs[pi].b == a {
			return [2]int{pi, 1}
		}
	}
	return [2]int{-1, -1}
}

// scanAll runs the shared pass over rows [lo, hi), split across
// GOMAXPROCS contiguous row shards when the range is large enough to
// amortize the per-shard scratch (counts are additive; shard partials
// merge by summation). Every shard observes ctx between row blocks; a
// canceled scan returns ctx.Err() once all shards have stopped.
func scanAll(ctx context.Context, classCol []int32, plan *batchPlan, lo, hi int) error {
	rows := hi - lo
	shards := runtime.GOMAXPROCS(0)
	if max := rows / batchShardRows; shards > max {
		shards = max
	}
	if shards <= 1 {
		return scanRange(ctx, classCol, plan, lo, hi)
	}
	parts := plan.shardPlans(shards)
	var wg sync.WaitGroup
	errs := make([]error, shards)
	per := (rows + shards - 1) / shards
	for s, part := range parts {
		slo := lo + s*per
		shi := slo + per
		if shi > hi {
			shi = hi
		}
		wg.Add(1)
		go func(s int, part *batchPlan, slo, shi int) {
			defer wg.Done()
			errs[s] = scanRange(ctx, classCol, part, slo, shi)
		}(s, part, slo, shi)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return ctx.Err() // shards fail only on a cancel
	}
	plan.addShards(parts[1:])
	return nil
}

// addShards sums the extra shards' scratch into the plan's own.
func (p *batchPlan) addShards(shards []*batchPlan) {
	for _, q := range shards {
		AddCounts(p.buf, q.buf)
	}
}

// shardPlans returns one plan per scan shard: shard 0 scans into p's
// own scratch, each extra shard into a private zeroed copy with the
// same layout, summed back into p.buf after the pass.
func (p *batchPlan) shardPlans(shards int) []*batchPlan {
	parts := []*batchPlan{p}
	for len(parts) < shards {
		q := &batchPlan{
			nc:    p.nc,
			pairs: append([]pairPlan(nil), p.pairs...),
			heads: p.heads,
			ones:  append([]onePlan(nil), p.ones...),
			ks:    append([]kPlan(nil), p.ks...),
		}
		q.alloc()
		parts = append(parts, q)
	}
	return parts
}

// scanBlockRows sizes the row blocks of the shared scan: small enough
// that a block's class and value columns stay cache-resident while
// every plan tallies it, large enough to amortize the per-plan loop
// setup. 2048 rows × 4 bytes = 8 KiB per column touched.
const scanBlockRows = 2048

// scanRange is the shared scan's inner loop over rows [lo, hi) — the
// only code that adds rows into cube cells. Each row with a present
// class bumps exactly one cell per plan. The +1 shift routes a missing
// value (code -1) to slot 0, so the loop has no per-plan branch;
// extraction drops (or marginalizes over) that slot. Rows are processed
// in blocks with the plan loop outside the row loop, so each plan's
// column/scratch pointers hoist out of the hot loop and the block's
// columns are revisited while still in cache. Pairs sharing a head
// attribute compute its (a, class) term once per block and each adds
// only its b term; a head with a lone pair runs one fused loop. Heads
// are chosen by planBatch (the more frequent attribute of each pair)
// and work in plan coordinates, so a flipped pair scans exactly like
// any other; only extraction knows its requested order. A k ≥ 3 plan
// indexes one column at a time — each dimension adds its stride term
// across the whole block, then one pass increments — instead of
// walking every dimension per row. ctx is checked before each block.
func scanRange(ctx context.Context, classCol []int32, plan *batchPlan, lo, hi int) error {
	nc, pairs, ones, ks := plan.nc, plan.pairs, plan.ones, plan.ks
	if plan.idx == nil && (len(ks) > 0 || len(plan.heads) < len(pairs)) {
		plan.idx = make([]int, scanBlockRows)
	}
	idx := plan.idx
	for blo := lo; blo < hi; blo += scanBlockRows {
		if err := ctx.Err(); err != nil {
			return err
		}
		bhi := blo + scanBlockRows
		if bhi > hi {
			bhi = hi
		}
		cls := classCol[blo:bhi]
		for _, h := range plan.heads {
			if len(h.pairs) == 1 {
				p := &pairs[h.pairs[0]]
				colA, colB := h.col[blo:bhi], p.colB[blo:bhi]
				scratch, strideB := p.scratch, p.strideB
				for r, cl := range cls {
					if cl < 0 {
						continue
					}
					scratch[(int(colB[r])+1)*strideB+(int(colA[r])+1)*nc+int(cl)]++
				}
				continue
			}
			// The shared (a, class) term; -1 marks a missing class.
			ix := idx[:len(cls)]
			for r, v := range h.col[blo:bhi] {
				ix[r] = -1
				if cl := cls[r]; cl >= 0 {
					ix[r] = (int(v)+1)*nc + int(cl)
				}
			}
			// Pairs under one head share strideB. Two pairs per pass over
			// the block halve the shared-term loads and missing-class
			// checks per increment; the [:len(ix)] reslices let the
			// compiler drop the column bounds checks.
			strideB := pairs[h.pairs[0]].strideB
			hp := h.pairs
			for ; len(hp) >= 2; hp = hp[2:] {
				p, q := &pairs[hp[0]], &pairs[hp[1]]
				colP, colQ := p.colB[blo:bhi][:len(ix)], q.colB[blo:bhi][:len(ix)]
				sp, sq := p.scratch, q.scratch
				for r, t := range ix {
					if t < 0 {
						continue
					}
					sp[(int(colP[r])+1)*strideB+t]++
					sq[(int(colQ[r])+1)*strideB+t]++
				}
			}
			for _, i := range hp {
				p := &pairs[i]
				colB, scratch := p.colB[blo:bhi][:len(ix)], p.scratch
				for r, t := range ix {
					if t < 0 {
						continue
					}
					scratch[(int(colB[r])+1)*strideB+t]++
				}
			}
		}
		for i := range ones {
			o := &ones[i]
			col, scratch := o.col[blo:bhi], o.scratch
			for r, cl := range cls {
				if cl < 0 {
					continue
				}
				scratch[(int(col[r])+1)*nc+int(cl)]++
			}
		}
		for i := range ks {
			kp := &ks[i]
			ix := idx[:len(cls)]
			for r, cl := range cls {
				ix[r] = int(cl)
			}
			for d, col := range kp.cols {
				stride := kp.strides[d]
				for r, v := range col[blo:bhi] {
					ix[r] += (int(v) + 1) * stride
				}
			}
			scratch := kp.scratch
			for r, cl := range cls {
				if cl < 0 {
					continue
				}
				scratch[ix[r]]++
			}
		}
	}
	return nil
}

// newCubeHeader builds an empty cube over attrs with the dataset's
// current dimensions, dictionaries and class count.
func newCubeHeader(ds *dataset.Dataset, attrs []int, nc int) *Cube {
	c := &Cube{
		attrIdx:    append([]int(nil), attrs...),
		classDict:  ds.ClassDict(),
		numClasses: nc,
	}
	size := nc
	for _, a := range attrs {
		d := cubeDim(ds, a)
		c.dims = append(c.dims, d)
		c.attrNames = append(c.attrNames, ds.Attr(a).Name)
		c.dicts = append(c.dicts, ds.Column(a).Dict)
		size *= d
	}
	c.counts = make([]int64, size)
	return c
}

// Extraction adds a counted accumulator's cells into a destination
// cube laid out in the requested dimension order, and raises its total
// by their sum: a build extracts into a fresh zeroed cube from
// newCubeHeader, a fold straight into the resident cube. Slot 0 of
// every condition dimension (rows where that value was missing) is
// dropped — a cube skips rows with a missing value in any of its
// dimensions — except where a derived 1-D cube marginalizes it.

// extract adds route r's counted cells into dst, which must have the
// route's layout (layoutMatches).
func (p *batchPlan) extract(r route, dst *Cube) {
	var sum int64
	switch r.kind {
	case routePair:
		sum = p.pairs[r.i].extract(dst.counts, p.nc)
	case routeDerived:
		sum = p.pairs[r.i].marginal(dst.counts, p.nc, r.pos)
	case routeOne:
		o := &p.ones[r.i]
		sum = addCells(dst.counts, o.scratch[p.nc:(o.dim+1)*p.nc])
	case routeK:
		sum = p.ks[r.i].extract(dst.counts)
	}
	dst.total += sum
}

// extractInto adds every request's counted cells into its cube:
// cubes[i] receives request i's.
func (p *batchPlan) extractInto(cubes []*Cube) {
	for i, r := range p.routes {
		p.extract(r, cubes[i])
	}
}

// layoutMatches reports whether c is laid out the way route r
// extracts: the accumulator's dimensions in request order and the
// plan's class count.
func (p *batchPlan) layoutMatches(r route, c *Cube) bool {
	if c.numClasses != p.nc {
		return false
	}
	switch r.kind {
	case routePair:
		pp := &p.pairs[r.i]
		d0, d1 := pp.dimA, pp.dimB
		if pp.flip {
			d0, d1 = d1, d0
		}
		return len(c.dims) == 2 && c.dims[0] == d0 && c.dims[1] == d1
	case routeDerived:
		d := p.pairs[r.i].dimA
		if r.pos == 1 {
			d = p.pairs[r.i].dimB
		}
		return len(c.dims) == 1 && c.dims[0] == d
	case routeOne:
		return len(c.dims) == 1 && c.dims[0] == p.ones[r.i].dim
	case routeK:
		return slices.Equal(c.dims, p.ks[r.i].dims)
	}
	return false
}

// addCells adds src into dst element-wise and returns src's sum.
func addCells(dst, src []int64) int64 {
	var sum int64
	for i, n := range src {
		dst[i] += n
		sum += n
	}
	return sum
}

// extract adds the pair's present-value block into dst. An unflipped
// plan transposes the b-outer scratch to the cube's a-outer order; a
// flipped one was requested b-first, so each b value's present block
// adds straight across.
func (p *pairPlan) extract(dst []int64, nc int) int64 {
	var sum int64
	if p.flip {
		blk := p.dimA * nc
		for vb := 0; vb < p.dimB; vb++ {
			src := (vb+1)*p.strideB + nc
			sum += addCells(dst[vb*blk:(vb+1)*blk], p.scratch[src:src+blk])
		}
		return sum
	}
	off := 0
	for va := 0; va < p.dimA; va++ {
		for vb := 0; vb < p.dimB; vb++ {
			src := (vb+1)*p.strideB + (va+1)*nc
			sum += addCells(dst[off:off+nc], p.scratch[src:src+nc])
			off += nc
		}
	}
	return sum
}

// marginal adds the 1-D cube of the attribute at plan position pos (0
// for the head, 1 for the partner) into dst by marginalizing the other
// dimension across *all* its slots — missing slot included, because a
// row with a present value and class is counted in the scratch
// wherever its partner value fell, and a 1-D cube keeps exactly those
// rows regardless of the partner.
func (p *pairPlan) marginal(dst []int64, nc, pos int) int64 {
	var sum int64
	if pos == 0 {
		for va := 0; va < p.dimA; va++ {
			d := dst[va*nc : (va+1)*nc]
			for sb := 0; sb <= p.dimB; sb++ {
				off := sb*p.strideB + (va+1)*nc
				sum += addCells(d, p.scratch[off:off+nc])
			}
		}
		return sum
	}
	for vb := 0; vb < p.dimB; vb++ {
		d := dst[vb*nc : (vb+1)*nc]
		base := (vb + 1) * p.strideB
		for sa := 0; sa <= p.dimA; sa++ {
			sum += addCells(d, p.scratch[base+sa*nc:base+(sa+1)*nc])
		}
	}
	return sum
}

// extract adds the k-D plan's present-value block into dst. The
// innermost dimension's present block is contiguous in both layouts,
// so the walk is an odometer over the outer dimensions that moves
// dims[k-1]×nc cells at a time; the odometer lives on the stack for
// k ≤ 8.
func (p *kPlan) extract(dst []int64) int64 {
	k := len(p.dims)
	blk := p.dims[k-1] * p.strides[k-1]
	var odo [8]int
	idx := odo[:]
	if k-1 > len(odo) {
		idx = make([]int, k-1)
	}
	idx = idx[:k-1]
	var sum int64
	off := 0
	for {
		src := p.strides[k-1] // skip slot 0 of the innermost dimension
		for i := 0; i < k-1; i++ {
			src += (idx[i] + 1) * p.strides[i]
		}
		sum += addCells(dst[off:off+blk], p.scratch[src:src+blk])
		off += blk
		i := k - 2
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < p.dims[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return sum
		}
	}
}
