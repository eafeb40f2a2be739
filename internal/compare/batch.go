package compare

import (
	"context"
	"errors"
	"fmt"

	"opmap/internal/dataset"
	"opmap/internal/rulecube"
)

// Batch comparison support. Every comparison declares its cube working
// set up front (workingSet: the split attribute's 1-D cube, one pair
// cube per candidate and, for one-vs-rest, each candidate's 1-D
// marginal) through engine.CubeSource.Cubes, so a lazy source
// materializes every missing cube from ONE shared dataset scan
// (rulecube.BuildMany) instead of one scan per cube. A fan-out over
// many comparisons on the same split attribute — a one-vs-rest over
// every value — repeats the same set, so its first comparison's fetch
// is the fan-out's only scan.

// workingSet lists the cubes one comparison split on attr reads: the
// split attribute's 1-D cube, then the (attr, candidate) pair cube for
// every candidate, each followed by the candidate's 1-D marginal when
// marginals is set (one-vs-rest needs it). Every list is a window of
// one backing array, and a marginal is the tail of its pair's window.
func workingSet(attr int, attrs []int, marginals bool) [][]int {
	per := 1
	if marginals {
		per = 2
	}
	buf := make([]int, 1+2*len(attrs))
	reqs := make([][]int, 1, 1+per*len(attrs))
	buf[0] = attr
	reqs[0] = buf[0:1:1]
	for i, ai := range attrs {
		j := 1 + 2*i
		buf[j], buf[j+1] = attr, ai
		reqs = append(reqs, buf[j:j+2:j+2])
		if marginals {
			reqs = append(reqs, buf[j+1:j+2:j+2])
		}
	}
	return reqs
}

// fetch resolves a comparison's working set in one CubeSource.Cubes
// call. A failure while the context is done is reported as ctx.Err()
// itself; any other failure names the comparison attribute.
func (c *Comparator) fetch(ctx context.Context, attr int, reqs [][]int) ([]*rulecube.Cube, error) {
	cubes, err := c.src.Cubes(ctx, reqs)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("compare: cubes for attribute %d unavailable: %w", attr, err)
	}
	return cubes, nil
}

// annotateSkippedValues marks the value range [from, card) as skipped
// with one shared reason — the tail a partial run never reached.
func annotateSkippedValues(res *OneVsRestAllResult, dict *dataset.Dictionary, from, card int, reason string) {
	for v := from; v < card; v++ {
		res.Skipped = append(res.Skipped, ItemError{Item: dict.Label(int32(v)), Err: reason})
	}
}

// OneVsRestAllOptions configures a one-vs-rest comparison over every
// value of the split attribute.
type OneVsRestAllOptions struct {
	// Compare tunes each per-value one-vs-rest ranking.
	Compare Options
}

// OneVsRestAllResult aggregates the one-vs-rest rankings of every value
// of one attribute.
type OneVsRestAllResult struct {
	// Attr is the split attribute's index.
	Attr int
	// Values, Labels and Results are parallel, in ascending value-code
	// order: one entry per value whose one-vs-rest comparison is
	// defined on the data.
	Values  []int32
	Labels  []string
	Results []*Result
	// Skipped annotates the values whose comparison is undefined on
	// this data (ErrValueUndefined) — or, on a degraded partial run,
	// was not attempted before the context expired.
	Skipped []ItemError
	// Partial is set when the context expired mid-run and
	// Compare.PartialOnDeadline allowed degradation, either between
	// values (the rest are annotated in Skipped) or inside one value's
	// ranking (that Result carries its own Partial flag).
	Partial bool
}

// OneVsRestAll runs OneVsRest for every value of attr against the
// class, skipping values whose comparison is undefined on the data
// (degenerate splits, zero-confidence sides, …) instead of failing.
func (c *Comparator) OneVsRestAll(attr int, class int32, opts OneVsRestAllOptions) (*OneVsRestAllResult, error) {
	return c.OneVsRestAllContext(context.Background(), attr, class, opts)
}

// OneVsRestAllContext is OneVsRestAll under a context. Every value's
// one-vs-rest declares the same cube working set, so a lazy source
// serves the whole run from the first value's one shared dataset scan.
// With Compare.PartialOnDeadline set, a context that expires mid-run
// yields the values ranked so far with Partial set and the rest
// annotated in Skipped; otherwise the call fails with the first error.
func (c *Comparator) OneVsRestAllContext(ctx context.Context, attr int, class int32, opts OneVsRestAllOptions) (*OneVsRestAllResult, error) {
	ds := c.ds
	if attr < 0 || attr >= ds.NumAttrs() || attr == ds.ClassIndex() {
		return nil, fmt.Errorf("compare: invalid comparison attribute %d", attr)
	}
	if class < 0 || int(class) >= ds.NumClasses() {
		return nil, fmt.Errorf("compare: class %d out of range [0,%d)", class, ds.NumClasses())
	}
	// Validate the candidate list up front, so a bad explicit list fails
	// the call even when no value reaches a comparison.
	if _, err := resolveRankAttrs(ds, attr, opts.Compare.Attrs); err != nil {
		return nil, err
	}
	dict := ds.Column(attr).Dict
	res := &OneVsRestAllResult{Attr: attr}
	card := ds.Cardinality(attr)
	annotateRest := func(from int, reason string) {
		annotateSkippedValues(res, dict, from, card, reason)
	}
	for v := 0; v < card; v++ {
		if err := ctx.Err(); err != nil {
			if !opts.Compare.PartialOnDeadline {
				return nil, err
			}
			res.Partial = true
			annotateRest(v, err.Error())
			break
		}
		label := dict.Label(int32(v))
		one, err := c.OneVsRestContext(ctx, OneVsRestInput{Attr: attr, Value: int32(v), Class: class}, opts.Compare)
		switch {
		case err == nil:
			res.Values = append(res.Values, int32(v))
			res.Labels = append(res.Labels, label)
			res.Results = append(res.Results, one)
			res.Partial = res.Partial || one.Partial
		case errors.Is(err, ErrValueUndefined):
			res.Skipped = append(res.Skipped, ItemError{Item: label, Err: err.Error()})
		case ctx.Err() != nil && opts.Compare.PartialOnDeadline:
			res.Partial = true
			res.Skipped = append(res.Skipped, ItemError{Item: label, Err: err.Error()})
			annotateRest(v+1, ctx.Err().Error())
			return res, nil
		default:
			return nil, fmt.Errorf("compare: one-vs-rest %s=%s: %w", ds.Attr(attr).Name, label, err)
		}
	}
	return res, nil
}
