package opmap

import (
	"context"
	"strings"

	"opmap/internal/compare"
	"opmap/internal/drill"
	"opmap/internal/obsv"
)

// DrillOptions tunes a multi-condition drill-down. The zero value
// drills two conditions deep with a beam of 8 using the paper's
// contribution measure.
type DrillOptions struct {
	// Compare configures the underlying comparison at every depth: CI
	// level and method, property threshold, and the Attrs restriction
	// on candidate condition attributes.
	Compare CompareOptions
	// MaxDepth is the maximum number of drill conditions beyond the
	// comparison attribute. Zero means 2.
	MaxDepth int
	// Beam is the number of highest-scoring nodes expanded per depth.
	// Zero means 8.
	Beam int
	// MaxNodes caps the total candidate nodes created across the
	// search. Zero means 256.
	MaxNodes int
	// MinSupport is the minimum refined sub-population size (both
	// sides) for a cell to become a finding. Zero means 8.
	MinSupport int64
	// Measure selects the extension-scoring measure: "paper" (default,
	// the CI-revised contribution of Eq. 1–2), "lift" or "conviction".
	Measure string
	// PartialOnDeadline returns the findings collected so far — with
	// the unexplored frontier listed in DrillResult.Unexplored — when
	// the context expires mid-search, instead of failing the call.
	PartialOnDeadline bool
}

// DrillCondition is one attribute=value condition of a finding.
type DrillCondition struct {
	Attr  string `json:"attr"`
	Value string `json:"value"`
}

// DrillFinding is one scored condition path of a drill-down.
type DrillFinding struct {
	// Conds lists the conditions beyond the comparison attribute, in
	// drill order.
	Conds []DrillCondition `json:"conds"`
	// Depth is len(Conds); depth ≥ 2 findings are conjunctions no
	// single attribute's ranking surfaces.
	Depth int `json:"depth"`
	// Score is the measure score normalized by the parent node's
	// attainable maximum, comparable across depths. Findings are
	// ranked by Score.
	Score float64 `json:"score"`
	// Raw is the unnormalized measure score (for the paper measure,
	// the excess class mass in records).
	Raw float64 `json:"raw"`

	N1 int64 `json:"n1"` // refined sub-population 1 size
	C1 int64 `json:"c1"` // of those, class records
	N2 int64 `json:"n2"` // refined sub-population 2 size
	C2 int64 `json:"c2"` // of those, class records

	Cf1 float64 `json:"cf1"`
	Cf2 float64 `json:"cf2"`
}

// Label renders the finding's conditions as "Attr=value & ...".
func (f DrillFinding) Label() string {
	parts := make([]string, len(f.Conds))
	for i, c := range f.Conds {
		parts[i] = c.Attr + "=" + c.Value
	}
	return strings.Join(parts, " & ")
}

// DrillResult is a complete drill-down: the oriented root comparison
// and every scored condition path, highest score first.
type DrillResult struct {
	// Attr is the comparison attribute; Label1/Label2 the compared
	// values, oriented so Label1 has the lower confidence; Class the
	// class of interest.
	Attr           string `json:"attr"`
	Label1, Label2 string `json:"-"`
	Class          string `json:"class"`

	Cf1, Cf2, Ratio float64 `json:"-"`

	// Measure names the measure that scored the findings.
	Measure string `json:"measure"`
	// Findings lists every scored condition path by descending Score.
	Findings []DrillFinding `json:"findings"`
	// Expanded counts the frontier nodes expanded, including the root.
	Expanded int `json:"expanded"`

	// Partial is set when the search stopped early (context expiry
	// with PartialOnDeadline, the node budget, or a session restored
	// from a snapshot or cube file, whose drill ends at depth 1);
	// Unexplored lists what was not searched.
	Partial    bool        `json:"partial"`
	Unexplored []ItemError `json:"unexplored,omitempty"`

	// Root is the one-condition comparison the drill-down started
	// from.
	Root *Comparison `json:"-"`
}

// Top returns the n highest-ranked findings.
func (r *DrillResult) Top(n int) []DrillFinding {
	if n > len(r.Findings) {
		n = len(r.Findings)
	}
	return r.Findings[:n]
}

// DrillDown searches for multi-condition sub-population effects: it
// runs the attr=v1 vs attr=v2 comparison and then expands the
// highest-scoring condition branches, scoring condition conjunctions
// inside the refined sub-populations. Effects that only a conjunction
// of conditions produces — invisible to the one-condition ranking —
// surface here. Rule cubes must be built (or the session lazy).
func (s *Session) DrillDown(attr, v1, v2, class string, opts DrillOptions) (*DrillResult, error) {
	return s.DrillDownContext(context.Background(), attr, v1, v2, class, opts)
}

// DrillDownContext is DrillDown under a context, checked at every
// frontier step. Completed results are memoized in the session result
// cache; partial results are not.
func (s *Session) DrillDownContext(ctx context.Context, attr, v1, v2, class string, opts DrillOptions) (*DrillResult, error) {
	defer obsv.Stage(obsv.StageDrillDown)()
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, err := s.requireSource()
	if err != nil {
		return nil, err
	}
	in, copts, err := s.resolve(attr, v1, v2, class, opts.Compare)
	if err != nil {
		return nil, err
	}
	meas, err := drill.ByName(opts.Measure)
	if err != nil {
		return nil, err
	}
	dopts := drill.Options{
		MaxDepth:          opts.MaxDepth,
		Beam:              opts.Beam,
		MaxNodes:          opts.MaxNodes,
		MinSupport:        opts.MinSupport,
		Measure:           meas,
		Compare:           copts,
		PartialOnDeadline: opts.PartialOnDeadline,
	}
	ver := s.results.Version()
	key := drilldownKey(in, dopts)
	if v, ok := s.results.Get(ver, key); ok {
		return s.wrapDrill(attr, class, in, v.(*drill.Result)), nil
	}
	res, err := drill.New(src).DrillContext(ctx, in, dopts)
	if err != nil {
		return nil, err
	}
	if !res.Partial {
		// An unrestricted drill-down may condition on any attribute, so
		// it depends on all of them (nil deps); a restricted one only on
		// the comparison attribute and the explicit candidates.
		s.results.PutDeps(ver, key, res, compareDeps(in, copts))
	}
	return s.wrapDrill(attr, class, in, res), nil
}

// wrapDrill converts the internal result to the public form.
func (s *Session) wrapDrill(attr, class string, in compare.Input, res *drill.Result) *DrillResult {
	root := s.wrapComparison(attr, class, in, res.Root)
	out := &DrillResult{
		Attr:       attr,
		Label1:     root.Label1,
		Label2:     root.Label2,
		Class:      class,
		Cf1:        root.Cf1,
		Cf2:        root.Cf2,
		Ratio:      root.Ratio,
		Measure:    res.Measure,
		Expanded:   res.Expanded,
		Partial:    res.Partial,
		Unexplored: toItemErrors(res.Unexplored),
		Root:       root,
	}
	for _, f := range res.Findings {
		df := DrillFinding{
			Depth: f.Depth,
			Score: f.Score,
			Raw:   f.Raw,
			N1:    f.N1, C1: f.C1, N2: f.N2, C2: f.C2,
			Cf1: f.Cf1, Cf2: f.Cf2,
		}
		for _, c := range f.Conds {
			df.Conds = append(df.Conds, DrillCondition{Attr: c.Name, Value: c.Label})
		}
		out.Findings = append(out.Findings, df)
	}
	return out
}
