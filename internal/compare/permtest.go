package compare

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"opmap/internal/dataset"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
)

// Permutation test for the interestingness measure. The paper justifies
// M's extremes analytically (Section IV.A) and guards individual
// confidences with intervals (IV.B), but offers no significance level
// for a whole attribute's M. The permutation test supplies one: shuffle
// the records between D1 and D2 (keeping the sub-population sizes),
// recompute M each time, and report how often chance alone reaches the
// observed value. A planted attribute earns a tiny p-value; a noise
// attribute does not — useful when deciding how deep into the ranking
// to send the engineers.

// PermutationResult summarizes a test.
type PermutationResult struct {
	Attr     int
	AttrName string

	Observed float64 // M on the real split
	// PValue is (1 + #{permuted M ≥ observed}) / (1 + rounds), the
	// add-one estimator that never returns 0.
	PValue float64
	// NullMean and NullQ95 describe the permutation distribution.
	NullMean float64
	NullQ95  float64
	Rounds   int // rounds that produced a valid M (cf1 > 0)
}

// PermutationTest runs a permutation test of candidate attribute attr
// for the comparison in over the raw dataset. rounds defaults to 200
// when ≤ 0. The test scans the data (cube cells cannot be permuted), so
// its cost scales with |D1|+|D2| per round.
func PermutationTest(ds *dataset.Dataset, in Input, attr int, rounds int, seed int64, opts Options) (PermutationResult, error) {
	return PermutationTestContext(context.Background(), ds, in, attr, rounds, seed, opts)
}

// PermutationTestContext is PermutationTest under a context, checked
// once per permutation round. It is strict: cancellation mid-test
// returns ctx.Err() (a truncated null distribution would bias the
// p-value, so there is no partial mode).
func PermutationTestContext(ctx context.Context, ds *dataset.Dataset, in Input, attr int, rounds int, seed int64, opts Options) (PermutationResult, error) {
	defer obsv.Stage(obsv.StagePermutationTest)()
	if !ds.AllCategorical() {
		return PermutationResult{}, fmt.Errorf("compare: dataset has continuous attributes; discretize first")
	}
	if attr < 0 || attr >= ds.NumAttrs() || attr == ds.ClassIndex() || attr == in.Attr {
		return PermutationResult{}, fmt.Errorf("compare: invalid candidate attribute %d", attr)
	}
	if rounds <= 0 {
		rounds = 200
	}

	// Observed score via the standard scan restricted to this attribute.
	obs, err := Scan(ds, in, withAttrs(opts, attr))
	if err != nil {
		return PermutationResult{}, err
	}
	score, _, ok := obs.Find(ds.Attr(attr).Name)
	if !ok {
		return PermutationResult{}, fmt.Errorf("compare: attribute %q produced no score", ds.Attr(attr).Name)
	}

	// Collect the member rows of both sub-populations, with their
	// candidate-attribute value and class membership. One pass over the
	// rows; cancellation granularity is the pass (same convention as a
	// single cube build).
	pool, n1 := collectPool(ds, in, attr, obs.Swapped)
	if n1 == 0 || n1 == len(pool) {
		return PermutationResult{}, fmt.Errorf("compare: degenerate sub-populations")
	}

	card := ds.Cardinality(attr)
	rng := rand.New(rand.NewSource(seed))
	var null []float64
	exceed := 0
	for round := 0; round < rounds; round++ {
		if err := ctxOrFault(ctx, faultinject.SitePermRound); err != nil {
			return PermutationResult{}, err
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		tab := newValueTable(card)
		var t1n, t1c, t2n, t2c int64
		for i, m := range pool {
			if m.value < 0 {
				continue
			}
			if i < n1 {
				tab.n1[m.value]++
				t1n++
				if m.inClass {
					tab.c1[m.value]++
					t1c++
				}
			} else {
				tab.n2[m.value]++
				t2n++
				if m.inClass {
					tab.c2[m.value]++
					t2c++
				}
			}
		}
		m, valid := permScore(tab, t1n, t1c, t2n, t2c, opts)
		if !valid {
			continue
		}
		null = append(null, m)
		if m >= score.Score {
			exceed++
		}
	}
	if len(null) == 0 {
		return PermutationResult{}, fmt.Errorf("compare: no valid permutation rounds (class too rare)")
	}
	res := PermutationResult{
		Attr:     attr,
		AttrName: ds.Attr(attr).Name,
		Observed: score.Score,
		PValue:   float64(1+exceed) / float64(1+len(null)),
		Rounds:   len(null),
	}
	res.NullMean, res.NullQ95 = summarizeNull(null)
	return res, nil
}

// member is one row of a permutation pool: its candidate-attribute
// value and whether the row belongs to the target class.
type member struct {
	value   int32
	inClass bool
}

// collectPool gathers the member rows of both sub-populations in one
// pass over the dataset, in row order; n1 counts the first
// sub-population's rows. The permutation rounds shuffle the pool and
// re-partition it at n1.
func collectPool(ds *dataset.Dataset, in Input, attr int, swapped bool) (pool []member, n1 int) {
	a1 := ds.Column(in.Attr)
	ai := ds.Column(attr)
	cls := ds.Column(ds.ClassIndex())
	v1, v2 := in.V1, in.V2
	// Match the observed orientation: orient() may have swapped.
	if swapped {
		v1, v2 = v2, v1
	}
	for r := 0; r < ds.NumRows(); r++ {
		switch a1.Code(r) {
		case v1:
			pool = append(pool, member{ai.Code(r), cls.Code(r) == in.Class})
			n1++
		case v2:
			pool = append(pool, member{ai.Code(r), cls.Code(r) == in.Class})
		}
	}
	return pool, n1
}

// summarizeNull reduces the null distribution to its mean and 95th
// percentile. Sorts in place.
func summarizeNull(null []float64) (mean, q95 float64) {
	var sum float64
	for _, m := range null {
		sum += m
	}
	sort.Float64s(null)
	return sum / float64(len(null)), null[int(0.95*float64(len(null)-1))]
}

// permScore computes M for a permuted table, orienting so cf1 < cf2.
func permScore(tab valueTable, t1n, t1c, t2n, t2c int64, opts Options) (float64, bool) {
	if t1n == 0 || t2n == 0 {
		return 0, false
	}
	cf1 := float64(t1c) / float64(t1n)
	cf2 := float64(t2c) / float64(t2n)
	if cf1 > cf2 {
		tab.n1, tab.n2 = tab.n2, tab.n1
		tab.c1, tab.c2 = tab.c2, tab.c1
		cf1, cf2 = cf2, cf1
	}
	if t1c == 0 || t2c == 0 {
		return 0, false
	}
	res := &Result{Cf1: cf1, Cf2: cf2, Ratio: cf2 / cf1, Options: opts}
	comp := &computation{result: res}
	ds, err := syntheticAttr("perm", permDict(len(tab.n1)))
	if err != nil {
		return 0, false
	}
	score, err := scoreAttribute(ds, 0, tab, comp, opts)
	if err != nil {
		return 0, false
	}
	return score.Score, true
}

func permDict(card int) *dataset.Dictionary {
	d := dataset.NewDictionary()
	for i := 0; i < card; i++ {
		d.Code(fmt.Sprintf("v%d", i))
	}
	return d
}

// withAttrs restricts opts to a single candidate attribute.
func withAttrs(opts Options, attr int) Options {
	opts.Attrs = []int{attr}
	return opts
}
