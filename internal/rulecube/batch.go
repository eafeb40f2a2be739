package rulecube

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"opmap/internal/dataset"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
)

// The counting kernel (DESIGN.md §14). Every path that turns rows into
// cube cells — Build, the store build, lazy on-demand and bulk builds,
// and streaming ingest — goes through the shared scan below: one
// scratch accumulator per distinct cube, a branch-free inner loop, and
// an extraction step that also derives 1-D marginals from pair scratch
// for free. COMPARE (arXiv:2107.11967) observes that groupwise
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

// countRange is the kernel behind BuildMany and FoldRows: it counts
// rows [lo, hi) of ds into one cube per distinct (validated) request
// and reports how many distinct cubes it produced. It advances no
// metric; callers decide what the pass means.
func countRange(ctx context.Context, ds *dataset.Dataset, reqs [][]int, lo, hi int) ([]*Cube, int, error) {
	nc := ds.NumClasses()
	plan, err := planBatch(ds, nc, reqs)
	if err != nil {
		return nil, 0, err
	}
	if err := scanAll(ctx, ds.Column(ds.ClassIndex()).Codes, nc, plan, lo, hi); err != nil {
		return nil, 0, err
	}
	out, built := extractAll(ds, nc, reqs, plan)
	return out, built, nil
}

// batchPlan is the deduplicated working set of one shared scan: one
// pairPlan per distinct pair, one onePlan per 1-D request no pair
// covers, one kPlan per distinct k ≥ 3 request, and the index maps
// extraction uses to route each request to its accumulator.
type batchPlan struct {
	pairs   []pairPlan
	heads   []pairHead
	headIdx map[int]int // head attribute -> heads index
	ones    []onePlan
	ks      []kPlan
	pairIdx map[[2]int]int
	oneIdx  map[int]int
	kIdx    map[string]int // ordered attr-list key -> kPlan index
	derived map[int][2]int // attr -> {pair plan index, dimension position}
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
// where every attribute ties, keeps request order.
func planBatch(ds *dataset.Dataset, nc int, reqs [][]int) (*batchPlan, error) {
	p := &batchPlan{
		pairIdx: make(map[[2]int]int),
		headIdx: make(map[int]int),
		oneIdx:  make(map[int]int),
		kIdx:    make(map[string]int),
		derived: make(map[int][2]int),
	}
	pairs := make([][2]int, 0, len(reqs))
	freq := make([]int, ds.NumAttrs())
	for _, attrs := range reqs {
		switch {
		case len(attrs) == 2:
			k := [2]int{attrs[0], attrs[1]}
			if _, ok := p.pairIdx[k]; !ok {
				p.pairIdx[k] = len(pairs)
				pairs = append(pairs, k)
				freq[k[0]]++
				freq[k[1]]++
			}
		case len(attrs) >= 3:
			if err := p.addK(ds, nc, attrs); err != nil {
				return nil, err
			}
		}
	}
	for _, k := range pairs {
		p.addPair(ds, nc, k, freq[k[1]] > freq[k[0]])
	}
	for _, attrs := range reqs {
		if len(attrs) == 1 {
			p.addOne(ds, nc, attrs[0])
		}
	}
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
	h, ok := p.headIdx[a]
	if !ok {
		h = len(p.heads)
		p.headIdx[a] = h
		p.heads = append(p.heads, pairHead{col: ds.Column(a).Codes})
	}
	p.heads[h].pairs = append(p.heads[h].pairs, len(p.pairs))
	p.pairs = append(p.pairs, pairPlan{
		a: a, b: b, flip: flip,
		colB: ds.Column(b).Codes,
		dimA: dimA, dimB: dimB,
		strideB: (dimA + 1) * nc,
		scratch: make([]int64, (dimA+1)*(dimB+1)*nc),
	})
}

// addK registers the k-D plan for the ordered list attrs unless one
// exists.
func (p *batchPlan) addK(ds *dataset.Dataset, nc int, attrs []int) error {
	key := kKey(attrs)
	if _, ok := p.kIdx[key]; ok {
		return nil
	}
	kp := kPlan{attrs: append([]int(nil), attrs...)}
	cells := int64(nc)
	for _, a := range attrs {
		d := cubeDim(ds, a)
		kp.dims = append(kp.dims, d)
		kp.cols = append(kp.cols, ds.Column(a).Codes)
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
	kp.scratch = make([]int64, cells)
	p.kIdx[key] = len(p.ks)
	p.ks = append(p.ks, kp)
	return nil
}

// addOne routes a 1-D request for a through a covering pair plan, or
// registers a dedicated 1-D plan when no pair covers it.
func (p *batchPlan) addOne(ds *dataset.Dataset, nc, a int) {
	if _, ok := p.oneIdx[a]; ok {
		return
	}
	if _, ok := p.derived[a]; ok {
		return
	}
	if pos := findPairFor(p.pairs, a); pos[0] >= 0 {
		p.derived[a] = pos
		return
	}
	d := cubeDim(ds, a)
	p.oneIdx[a] = len(p.ones)
	p.ones = append(p.ones, onePlan{
		a: a, col: ds.Column(a).Codes,
		dim: d, scratch: make([]int64, (d+1)*nc),
	})
}

// extractAll materializes each distinct cube once from the counted
// scratch (duplicate requests share the pointer) and reports how many
// cubes were built.
func extractAll(ds *dataset.Dataset, nc int, reqs [][]int, plan *batchPlan) ([]*Cube, int) {
	out := make([]*Cube, len(reqs))
	pairCubes := make([]*Cube, len(plan.pairs))
	kCubes := make([]*Cube, len(plan.ks))
	oneCubes := make(map[int]*Cube)
	built := 0
	for i, attrs := range reqs {
		switch {
		case len(attrs) >= 3:
			ki := plan.kIdx[kKey(attrs)]
			if kCubes[ki] == nil {
				kCubes[ki] = extractK(ds, nc, &plan.ks[ki])
				built++
			}
			out[i] = kCubes[ki]
		case len(attrs) == 2:
			pi := plan.pairIdx[[2]int{attrs[0], attrs[1]}]
			if pairCubes[pi] == nil {
				pairCubes[pi] = extractPair(ds, nc, &plan.pairs[pi])
				built++
			}
			out[i] = pairCubes[pi]
		default:
			a := attrs[0]
			c, ok := oneCubes[a]
			if !ok {
				if pos, der := plan.derived[a]; der {
					c = extractDerivedOne(ds, nc, a, &plan.pairs[pos[0]], pos[1])
				} else {
					c = extractOne(ds, nc, &plan.ones[plan.oneIdx[a]])
				}
				oneCubes[a] = c
				built++
			}
			out[i] = c
		}
	}
	return out, built
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
func scanAll(ctx context.Context, classCol []int32, nc int, plan *batchPlan, lo, hi int) error {
	rows := hi - lo
	shards := runtime.GOMAXPROCS(0)
	if max := rows / batchShardRows; shards > max {
		shards = max
	}
	if shards <= 1 {
		return scanRange(ctx, classCol, nc, plan, lo, hi)
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
			errs[s] = scanRange(ctx, classCol, nc, part, slo, shi)
		}(s, part, slo, shi)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return ctx.Err() // shards fail only on a cancel
	}
	plan.addShards(parts[1:])
	return nil
}

// shardPlans returns one plan per scan shard: shard 0 scans into p's
// own scratch, each extra shard into a private zeroed copy of the
// scratch arrays, summed back by addShards after the pass.
func (p *batchPlan) shardPlans(shards int) []*batchPlan {
	parts := []*batchPlan{p}
	for len(parts) < shards {
		q := &batchPlan{
			pairs: append([]pairPlan(nil), p.pairs...),
			heads: p.heads,
			ones:  append([]onePlan(nil), p.ones...),
			ks:    append([]kPlan(nil), p.ks...),
		}
		for i := range q.pairs {
			q.pairs[i].scratch = make([]int64, len(p.pairs[i].scratch))
		}
		for i := range q.ones {
			q.ones[i].scratch = make([]int64, len(p.ones[i].scratch))
		}
		for i := range q.ks {
			q.ks[i].scratch = make([]int64, len(p.ks[i].scratch))
		}
		parts = append(parts, q)
	}
	return parts
}

// addShards sums the extra shards' scratch into the plan's own.
func (p *batchPlan) addShards(shards []*batchPlan) {
	for _, q := range shards {
		for i := range p.pairs {
			AddCounts(p.pairs[i].scratch, q.pairs[i].scratch)
		}
		for i := range p.ones {
			AddCounts(p.ones[i].scratch, q.ones[i].scratch)
		}
		for i := range p.ks {
			AddCounts(p.ks[i].scratch, q.ks[i].scratch)
		}
	}
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
func scanRange(ctx context.Context, classCol []int32, nc int, plan *batchPlan, lo, hi int) error {
	pairs, ones, ks := plan.pairs, plan.ones, plan.ks
	var idx []int // per-row partial cell indexes of one block
	if len(ks) > 0 || len(plan.heads) < len(pairs) {
		idx = make([]int, scanBlockRows)
	}
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

// extractPair copies the present-value block of a pair plan's scratch
// into an exact cube in the requested dimension order: slot 0 of
// either dimension (rows where that value was missing) is dropped — a
// cube skips rows with a missing value in any of its dimensions. An
// unflipped plan transposes the b-outer scratch to the cube's a-outer
// order; a flipped one was requested b-first, so each b value's
// present block copies straight across.
func extractPair(ds *dataset.Dataset, nc int, p *pairPlan) *Cube {
	if p.flip {
		c := newCubeHeader(ds, []int{p.b, p.a}, nc)
		blk := p.dimA * nc
		for vb := 0; vb < p.dimB; vb++ {
			src := (vb+1)*p.strideB + nc
			copy(c.counts[vb*blk:(vb+1)*blk], p.scratch[src:src+blk])
		}
		return withTotal(c)
	}
	c := newCubeHeader(ds, []int{p.a, p.b}, nc)
	dst := 0
	for va := 0; va < p.dimA; va++ {
		for vb := 0; vb < p.dimB; vb++ {
			src := (vb+1)*p.strideB + (va+1)*nc
			copy(c.counts[dst:dst+nc], p.scratch[src:src+nc])
			dst += nc
		}
	}
	return withTotal(c)
}

// withTotal sets a freshly extracted cube's total from its cells.
func withTotal(c *Cube) *Cube {
	for _, n := range c.counts {
		c.total += n
	}
	return c
}

// extractOne copies a dedicated 1-D plan's present-value block.
func extractOne(ds *dataset.Dataset, nc int, o *onePlan) *Cube {
	c := newCubeHeader(ds, []int{o.a}, nc)
	copy(c.counts, o.scratch[nc:(o.dim+1)*nc])
	return withTotal(c)
}

// extractK copies the present-value block of a k-D plan's scratch into
// an exact cube: slot 0 of every condition dimension (rows where that
// value was missing) is dropped. The innermost dimension's present block is contiguous in both
// layouts, so the copy walks an odometer over the outer dimensions and
// moves dims[k-1]×nc cells at a time.
func extractK(ds *dataset.Dataset, nc int, p *kPlan) *Cube {
	c := newCubeHeader(ds, p.attrs, nc)
	k := len(p.dims)
	blk := p.dims[k-1] * nc
	idx := make([]int, k-1)
	dst := 0
	for {
		src := p.strides[k-1] // skip slot 0 of the innermost dimension
		for i := 0; i < k-1; i++ {
			src += (idx[i] + 1) * p.strides[i]
		}
		copy(c.counts[dst:dst+blk], p.scratch[src:src+blk])
		dst += blk
		i := k - 2
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < p.dims[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return withTotal(c)
}

// extractDerivedOne reproduces attribute a's 1-D cube from a pair
// plan's scratch by marginalizing the partner dimension across *all*
// its slots — missing slot included, because a row with a present a and
// class is counted in the scratch wherever its partner value fell, and
// a 1-D cube keeps exactly those rows regardless of the partner.
func extractDerivedOne(ds *dataset.Dataset, nc int, a int, p *pairPlan, pos int) *Cube {
	c := newCubeHeader(ds, []int{a}, nc)
	if pos == 0 {
		for va := 0; va < p.dimA; va++ {
			dst := c.counts[va*nc : (va+1)*nc]
			for sb := 0; sb <= p.dimB; sb++ {
				off := sb*p.strideB + (va+1)*nc
				AddCounts(dst, p.scratch[off:off+nc])
			}
		}
	} else {
		for vb := 0; vb < p.dimB; vb++ {
			dst := c.counts[vb*nc : (vb+1)*nc]
			base := (vb + 1) * p.strideB
			for sa := 0; sa <= p.dimA; sa++ {
				AddCounts(dst, p.scratch[base+sa*nc:base+(sa+1)*nc])
			}
		}
	}
	return withTotal(c)
}
