package compare

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"opmap/internal/engine"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
	"opmap/internal/testutil"
)

// batchSources builds the planted call log with an eager and a cold
// lazy comparator over it, for batch ≡ sequential oracle checks.
func batchSources(t testing.TB, records, noise int) (*Comparator, *Comparator, int, int32) {
	t.Helper()
	store, gt, ds := buildCaseStudy(t, records, noise)
	lazy, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	attr := ds.AttrIndex(gt.PhoneAttr)
	cls, ok := ds.ClassDict().Lookup(gt.DropClass)
	if !ok {
		t.Fatal("ground truth class missing")
	}
	return New(store), NewSource(lazy), attr, cls
}

// TestSweepBatchOracle: a sweep on a cold lazy engine, whose cubes come
// from shared scans, must be byte-for-byte identical to the same sweep
// over the eager store.
func TestSweepBatchOracle(t *testing.T) {
	eager, lazy, attr, cls := batchSources(t, 30000, 3)
	ref, err := eager.Sweep(attr, cls, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.PairsCompared == 0 {
		t.Fatal("reference sweep compared nothing")
	}
	got, err := lazy.Sweep(attr, cls, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Error("lazy sweep differs from the eager reference")
	}
}

// TestOneVsRestAllBatchOracle checks the all-values one-vs-rest the
// same way, with and without a restricted candidate list.
func TestOneVsRestAllBatchOracle(t *testing.T) {
	eager, lazy, attr, cls := batchSources(t, 30000, 3)
	for _, opts := range []Options{{}, {Attrs: []int{1, 2}}} {
		ref, err := eager.OneVsRestAll(attr, cls, OneVsRestAllOptions{Compare: opts})
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Results) == 0 {
			t.Fatal("reference one-vs-rest-all ranked nothing")
		}
		got, err := lazy.OneVsRestAll(attr, cls, OneVsRestAllOptions{Compare: opts})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("opts %+v: lazy one-vs-rest-all differs from the eager reference", opts)
		}
	}
}

// TestSweepSingleScan asserts the acceptance criterion directly: a full
// sweep over a cold lazy engine performs exactly one dataset scan, and
// repeating it on the now-warm engine performs none.
func TestSweepSingleScan(t *testing.T) {
	_, lazy, attr, cls := batchSources(t, 20000, 3)
	scans := obsv.Default().Counter(rulecube.CubeScansCounterName)
	for _, want := range []int64{1, 0} {
		s0 := scans.Value()
		if _, err := lazy.Sweep(attr, cls, SweepOptions{}); err != nil {
			t.Fatal(err)
		}
		if d := scans.Value() - s0; d != want {
			t.Errorf("sweep performed %d scans, want %d", d, want)
		}
	}
}

// TestOneVsRestAllSkipsUndefined plants an undefined comparison (every
// side below MinRuleSupport) and checks values are skipped, not fatal.
func TestOneVsRestAllSkipsUndefined(t *testing.T) {
	eager, _, attr, cls := batchSources(t, 5000, 1)
	res, err := eager.OneVsRestAll(attr, cls, OneVsRestAllOptions{
		Compare: Options{MinRuleSupport: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 0 {
		t.Errorf("ranked %d values despite impossible MinRuleSupport", len(res.Results))
	}
	if len(res.Skipped) == 0 {
		t.Error("no values annotated as skipped")
	}
	for _, e := range res.Skipped {
		if e.Err == "" || e.Item == "" {
			t.Errorf("skipped annotation incomplete: %+v", e)
		}
	}
}

// TestRankSelfVsClassDistinct is the satellite bugfix check: an
// explicit candidate list naming the split attribute and one naming the
// class must fail with two distinguishable errors, on every entry
// point.
func TestRankSelfVsClassDistinct(t *testing.T) {
	eager, _, attr, cls := batchSources(t, 5000, 1)
	ds := eager.ds
	classIdx := ds.ClassIndex()
	check := func(name string, run func(opts Options) error) {
		if err := run(Options{Attrs: []int{attr}}); !errors.Is(err, ErrRankSelf) {
			t.Errorf("%s with split attr in Attrs: got %v, want ErrRankSelf", name, err)
		}
		if err := run(Options{Attrs: []int{classIdx}}); !errors.Is(err, ErrRankClass) {
			t.Errorf("%s with class in Attrs: got %v, want ErrRankClass", name, err)
		}
		if err := run(Options{Attrs: []int{classIdx}}); errors.Is(err, ErrRankSelf) {
			t.Errorf("%s: class error must not match ErrRankSelf", name)
		}
	}
	var v2 int32
	if ds.Cardinality(attr) > 1 {
		v2 = 1
	}
	check("Compare", func(opts Options) error {
		_, err := eager.Compare(Input{Attr: attr, V1: 0, V2: v2, Class: cls}, opts)
		return err
	})
	check("OneVsRest", func(opts Options) error {
		_, err := eager.OneVsRest(OneVsRestInput{Attr: attr, Value: 0, Class: cls}, opts)
		return err
	})
	check("OneVsRestAll", func(opts Options) error {
		_, err := eager.OneVsRestAll(attr, cls, OneVsRestAllOptions{Compare: opts})
		return err
	})
}

// TestSweepOptionValidation is the satellite bugfix check for the
// option sanitization: a negative TopK and a NaN MinScore used to be
// accepted and silently empty the aggregation.
func TestSweepOptionValidation(t *testing.T) {
	eager, _, attr, cls := batchSources(t, 5000, 1)
	if _, err := eager.Sweep(attr, cls, SweepOptions{TopK: -1}); err == nil {
		t.Error("negative TopK accepted")
	}
	if _, err := eager.Sweep(attr, cls, SweepOptions{MinScore: math.NaN()}); err == nil {
		t.Error("NaN MinScore accepted")
	}
	// A sanity check that valid extremes still work.
	if _, err := eager.Sweep(attr, cls, SweepOptions{TopK: 1 << 20, MinScore: -1}); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

// TestOneVsRestAllValidation covers the request-level errors of the new
// entry point.
func TestOneVsRestAllValidation(t *testing.T) {
	eager, _, attr, cls := batchSources(t, 5000, 1)
	ds := eager.ds
	if _, err := eager.OneVsRestAll(-1, cls, OneVsRestAllOptions{}); err == nil {
		t.Error("negative attribute accepted")
	}
	if _, err := eager.OneVsRestAll(ds.ClassIndex(), cls, OneVsRestAllOptions{}); err == nil {
		t.Error("class as split attribute accepted")
	}
	if _, err := eager.OneVsRestAll(attr, int32(ds.NumClasses()), OneVsRestAllOptions{}); err == nil {
		t.Error("out-of-range class accepted")
	}
	if _, err := eager.OneVsRestAll(attr, cls, OneVsRestAllOptions{Compare: Options{Attrs: []int{99}}}); err == nil {
		t.Error("out-of-range candidate accepted")
	}
}

// FuzzSweepOptions fuzzes the sweep option surface: invalid options
// (negative TopK, NaN MinScore) must error, everything else must run
// the sweep without panicking and return a well-formed aggregate.
func FuzzSweepOptions(f *testing.F) {
	store, gt, ds := buildCaseStudy(f, 4000, 1)
	attr := ds.AttrIndex(gt.PhoneAttr)
	cls, ok := ds.ClassDict().Lookup(gt.DropClass)
	if !ok {
		f.Fatal("ground truth class missing")
	}
	c := New(store)
	f.Add(0, 0.0)
	f.Add(-3, 0.0)
	f.Add(2, math.Inf(1))
	f.Add(1, -1.5)
	f.Fuzz(func(t *testing.T, topK int, minScore float64) {
		opts := SweepOptions{TopK: topK, MinScore: minScore}
		res, err := c.Sweep(attr, cls, opts)
		if topK < 0 || math.IsNaN(minScore) {
			if err == nil {
				t.Fatalf("invalid options %+v accepted", opts)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid options %+v rejected: %v", opts, err)
		}
		if len(res.Comparisons) != res.PairsCompared || len(res.PairLabels) != res.PairsCompared {
			t.Fatal("comparison bookkeeping inconsistent")
		}
		for _, a := range res.Attributes {
			if a.Pairs <= 0 || a.Pairs > res.PairsCompared {
				t.Fatalf("aggregate %q counts %d pairs of %d compared", a.Name, a.Pairs, res.PairsCompared)
			}
		}
	})
}

// TestSweepBatchContext checks a canceled context fails a batched sweep
// promptly on both strict and partial paths.
func TestSweepBatchContext(t *testing.T) {
	_, lazy, attr, cls := batchSources(t, 5000, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lazy.SweepContext(ctx, attr, cls, SweepOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled batched sweep: got %v", err)
	}
}

// TestCompareOneScanContract pins the working-set contract: on a fresh
// lazy source a pairwise compare and a one-vs-rest, each over 12
// candidates, take exactly one dataset scan cold and none warm, and
// every pair cube they request is counted once in the cache statistics
// (a hit or a miss, never both, never twice). A cold one-vs-rest over
// every value is one scan too.
func TestCompareOneScanContract(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	_, gt, ds := buildCaseStudy(t, 8000, 12)
	in := inputFor(t, ds, gt)
	cands := defaultRankAttrs(ds, in.Attr)
	if len(cands) < 12 {
		t.Fatalf("fixture has %d candidates, need 12", len(cands))
	}
	opts := Options{Attrs: cands[:12]}
	scans := obsv.Default().Counter(rulecube.CubeScansCounterName)
	for _, tc := range []struct {
		name string
		run  func(c *Comparator) error
	}{
		{"pairwise", func(c *Comparator) error {
			_, err := c.Compare(in, opts)
			return err
		}},
		{"one-vs-rest", func(c *Comparator) error {
			_, err := c.OneVsRest(OneVsRestInput{Attr: in.Attr, Value: in.V2, Class: in.Class}, opts)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := engine.NewLazy(ds, engine.LazyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			c := NewSource(src)
			for _, want := range []int64{1, 0} {
				s0, st0 := scans.Value(), src.Stats()
				if err := tc.run(c); err != nil {
					t.Fatal(err)
				}
				if d := scans.Value() - s0; d != want {
					t.Errorf("advanced %s by %d, want %d", rulecube.CubeScansCounterName, d, want)
				}
				st := src.Stats()
				hits, misses := st.Hits-st0.Hits, st.Misses-st0.Misses
				if hits+misses != int64(len(opts.Attrs)) {
					t.Errorf("hits %d + misses %d, want one per pair cube (%d)", hits, misses, len(opts.Attrs))
				}
				if want == 0 && misses != 0 {
					t.Errorf("warm call missed %d cubes", misses)
				}
			}
		})
	}

	src, err := engine.NewLazy(ds, engine.LazyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	s0 := scans.Value()
	if _, err := NewSource(src).OneVsRestAllContext(context.Background(), in.Attr, in.Class, OneVsRestAllOptions{}); err != nil {
		t.Fatal(err)
	}
	if d := scans.Value() - s0; d != 1 {
		t.Errorf("cold one-vs-rest over every value took %d scans, want 1", d)
	}
}
