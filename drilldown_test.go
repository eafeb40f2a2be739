package opmap

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/stats"
)

// drillSession builds the drill-case session with the chosen engine.
func drillSession(t *testing.T, lazy bool) (*Session, DrillCaseTruth) {
	t.Helper()
	s, gt, err := GenerateDrillCase(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BuildCubesOptions(context.Background(), BuildOptions{Lazy: lazy}); err != nil {
		t.Fatal(err)
	}
	return s, gt
}

// TestDrillDownRecoversPair drives the full public path: the planted
// two-condition effect must rank first while the plain comparison's
// top attribute is the decoy.
func TestDrillDownRecoversPair(t *testing.T) {
	s, gt := drillSession(t, true)
	res, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("unexpected partial result: %+v", res.Unexplored)
	}
	if res.Label1 != gt.GoodPhone || res.Label2 != gt.BadPhone {
		t.Fatalf("orientation %q vs %q, want %q vs %q", res.Label1, res.Label2, gt.GoodPhone, gt.BadPhone)
	}
	top := res.Root.Top(1)
	if len(top) == 0 || top[0].Name != gt.SurfaceAttr {
		t.Fatalf("root ranking top = %+v, want decoy %q", top, gt.SurfaceAttr)
	}
	if len(res.Findings) == 0 {
		t.Fatal("no findings")
	}
	f := res.Findings[0]
	if f.Depth != 2 {
		t.Fatalf("top finding %s at depth %d, want the planted pair at depth 2", f.Label(), f.Depth)
	}
	got := map[string]string{}
	for _, c := range f.Conds {
		got[c.Attr] = c.Value
	}
	if got[gt.JointAttrA] != gt.JointValueA || got[gt.JointAttrB] != gt.JointValueB {
		t.Fatalf("top finding %s, want %s=%s & %s=%s", f.Label(), gt.JointAttrA, gt.JointValueA, gt.JointAttrB, gt.JointValueB)
	}
}

// TestDrillDownMemoized asserts the second identical query is served
// from the session result cache, and that option changes miss.
func TestDrillDownMemoized(t *testing.T) {
	s, gt := drillSession(t, false)
	run := func(opts DrillOptions) *DrillResult {
		t.Helper()
		res, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(DrillOptions{})
	hits0 := s.EngineStats().ResultCacheHits
	second := run(DrillOptions{})
	hits1 := s.EngineStats().ResultCacheHits
	if hits1 != hits0+1 {
		t.Fatalf("repeat query: result-cache hits %d -> %d, want +1", hits0, hits1)
	}
	if len(first.Findings) != len(second.Findings) || first.Findings[0].Label() != second.Findings[0].Label() {
		t.Fatal("cached result differs from computed result")
	}
	// The swapped value order is the same comparison, so it hits too.
	run2, err := s.DrillDown(gt.PhoneAttr, gt.BadPhone, gt.GoodPhone, gt.DropClass, DrillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.EngineStats().ResultCacheHits != hits1+1 {
		t.Fatal("swapped value order missed the result cache")
	}
	if run2.Findings[0].Label() != first.Findings[0].Label() {
		t.Fatal("swapped-order result differs")
	}
	// A different measure is a different result: no hit.
	run(DrillOptions{Measure: "lift"})
	if got := s.EngineStats().ResultCacheHits; got != hits1+1 {
		t.Fatalf("lift-measure query hit the cache (hits %d)", got)
	}
}

// TestDrillDownValidation covers name resolution and measure errors.
func TestDrillDownValidation(t *testing.T) {
	s, gt := drillSession(t, true)
	if _, err := s.DrillDown("No-Such-Attr", gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{Measure: "entropy"}); err == nil {
		t.Error("unknown measure accepted")
	}
	if _, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.GoodPhone, gt.DropClass, DrillOptions{}); err == nil {
		t.Error("identical values accepted")
	}
	if _, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{
		Compare: CompareOptions{Attrs: []string{gt.PhoneAttr}},
	}); err == nil {
		t.Error("self-ranking attrs list accepted")
	}
}

// TestDrillDownInvalidatedByIngest appends rows and expects the next
// drill-down to recompute rather than serve the stale entry.
func TestDrillDownInvalidatedByIngest(t *testing.T) {
	s, gt := drillSession(t, true)
	if _, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{}); err != nil {
		t.Fatal(err)
	}
	misses0 := s.EngineStats().ResultCacheMisses
	hits0 := s.EngineStats().ResultCacheHits

	// One appended row touches every attribute: the unrestricted
	// drill-down (nil deps = depends-on-all) must be invalidated.
	attrs := s.Attributes()
	row := make([]string, len(attrs))
	for i, a := range attrs {
		if a == s.ClassAttribute() {
			row[i] = gt.DropClass
			continue
		}
		vals, err := s.Values(a)
		if err != nil {
			t.Fatal(err)
		}
		row[i] = vals[0]
	}
	if err := s.Append([][]string{row}); err != nil {
		t.Fatal(err)
	}

	if _, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{}); err != nil {
		t.Fatal(err)
	}
	st := s.EngineStats()
	if st.ResultCacheHits != hits0 {
		t.Fatalf("post-ingest drill-down hit the stale cache (hits %d -> %d)", hits0, st.ResultCacheHits)
	}
	if st.ResultCacheMisses <= misses0 {
		t.Fatalf("post-ingest drill-down did not recompute (misses %d -> %d)", misses0, st.ResultCacheMisses)
	}
}

// TestDrillDownRestoredStopsAtDepthOne drills sessions restored from a
// snapshot, from shard snapshots and from a persisted cube file. Their
// counts cover rows they do not hold, so a depth-2 cube cannot be
// counted: the drill must stop at depth 1, labelled partial with the
// cut branches listed, and its depth-1 findings must be the fresh
// session's. Counting the depth-2 cubes over the rows at hand (none)
// would pass the depth-1 findings off as a complete answer.
func TestDrillDownRestoredStopsAtDepthOne(t *testing.T) {
	fresh, gt := drillSession(t, false)
	want, err := fresh.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Partial || len(want.Findings) == 0 || want.Findings[0].Depth != 2 {
		t.Fatalf("fresh drill: partial=%t, %d findings; want a complete drill topped by the depth-2 pair", want.Partial, len(want.Findings))
	}
	var depth1 []DrillFinding
	for _, f := range want.Findings {
		if f.Depth == 1 {
			depth1 = append(depth1, f)
		}
	}

	dir := t.TempDir()
	snapPath := filepath.Join(dir, "drill.omapsnap")
	if err := fresh.SaveSnapshotFile(snapPath, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	var cubes bytes.Buffer
	if err := fresh.SaveCubes(&cubes); err != nil {
		t.Fatal(err)
	}
	origins := map[string]func() (*Session, error){
		"snapshot":        func() (*Session, error) { return LoadSnapshotFile(snapPath) },
		"shard snapshots": func() (*Session, error) { return LoadShardSnapshots(snapPath) },
		"cube file":       func() (*Session, error) { return OpenCubes(bytes.NewReader(cubes.Bytes())) },
	}
	for name, open := range origins {
		t.Run(name, func(t *testing.T) {
			s, err := open()
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Partial || len(got.Unexplored) == 0 {
				t.Fatalf("partial=%t with %d unexplored branches; want a partial answer listing the cut depth-2 branches", got.Partial, len(got.Unexplored))
			}
			for _, u := range got.Unexplored {
				if !strings.Contains(u.Err, "rows the dataset does not hold") {
					t.Fatalf("unexplored %s: %q, want the rows-not-held error", u.Item, u.Err)
				}
			}
			if !reflect.DeepEqual(got.Findings, depth1) {
				t.Fatalf("findings %+v, want the fresh session's depth-1 findings %+v", got.Findings, depth1)
			}
		})
	}
}

// TestDrillDownAfterMergeFrom drills shard A, merges shard B into it
// and drills again: the merged session must answer as one session
// over A's and B's rows. The k ≥ 3 cubes the first drill left resident
// counted A's rows only and must not serve the second.
func TestDrillDownAfterMergeFrom(t *testing.T) {
	src, gt, err := GenerateDrillCase(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := src.ds.NumRows()
	load := func(lo, hi int) *Session {
		t.Helper()
		idx := make([]int, 0, hi-lo)
		for r := lo; r < hi; r++ {
			idx = append(idx, r)
		}
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, src.ds.Gather(idx)); err != nil {
			t.Fatal(err)
		}
		s, err := LoadCSV(&buf, LoadOptions{Class: src.ds.Attr(src.ds.ClassIndex()).Name})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.BuildCubes(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	drill := func(s *Session) float64 {
		t.Helper()
		res, err := s.DrillDown(gt.PhoneAttr, gt.GoodPhone, gt.BadPhone, gt.DropClass, DrillOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Findings {
			if f.Depth != 2 {
				continue
			}
			got := map[string]string{}
			for _, c := range f.Conds {
				got[c.Attr] = c.Value
			}
			if got[gt.JointAttrA] == gt.JointValueA && got[gt.JointAttrB] == gt.JointValueB {
				return f.Raw
			}
		}
		t.Fatalf("planted pair %s=%s & %s=%s not found", gt.JointAttrA, gt.JointValueA, gt.JointAttrB, gt.JointValueB)
		return 0
	}
	want := drill(load(0, rows))
	a, b := load(0, rows/2), load(rows/2, rows)
	drill(a)
	if err := a.MergeFrom(b); err != nil {
		t.Fatal(err)
	}
	if got := drill(a); !stats.ApproxEqual(got, want) {
		t.Fatalf("merged planted-pair raw score %.4f, want the single pass's %.4f", got, want)
	}
}
