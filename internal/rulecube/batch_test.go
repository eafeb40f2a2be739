package rulecube

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/faultinject"
	"opmap/internal/obsv"
	"opmap/internal/testutil"
)

// randomDatasetMissingClass is randomDataset with missing values in the
// class column too, so the batch oracle covers the rows the scan must
// skip entirely.
func randomDatasetMissingClass(t *testing.T, seed int64, rows, attrs, card, classes int, missingRate float64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := dataset.Schema{ClassIndex: attrs}
	for i := 0; i < attrs; i++ {
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: fmt.Sprintf("a%d", i), Kind: dataset.Categorical})
	}
	schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: "class", Kind: dataset.Categorical})
	b, err := dataset.NewBuilder(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < attrs; i++ {
		d := dataset.NewDictionary()
		for v := 0; v < card; v++ {
			d.Code(fmt.Sprintf("v%d", v))
		}
		b.WithDict(i, d)
	}
	cd := dataset.NewDictionary()
	for c := 0; c < classes; c++ {
		cd.Code(fmt.Sprintf("c%d", c))
	}
	b.WithDict(attrs, cd)
	codes := make([]int32, attrs+1)
	for r := 0; r < rows; r++ {
		for i := 0; i <= attrs; i++ {
			if rng.Float64() < missingRate {
				codes[i] = dataset.Missing
			} else if i == attrs {
				codes[i] = int32(rng.Intn(classes))
			} else {
				codes[i] = int32(rng.Intn(card))
			}
		}
		if err := b.AddCodedRow(codes, nil); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestBuildManyOracle checks every request shape against a brute-force
// recount of the rows: pair cubes in both dimension orders, 1-D cubes
// derived from a pair plan's scratch, 1-D cubes with a dedicated plan,
// ordered 3-D and 4-D cubes, and duplicate requests — then the same for
// pairs whose head the planner flips (pairs sharing their second
// attribute), on one scan, a row-sharded scan and a FoldRows range.
func TestBuildManyOracle(t *testing.T) {
	ctx := context.Background()
	for trial := int64(0); trial < 4; trial++ {
		ds := randomDatasetMissingClass(t, trial, 2500, 5, 4, 3, 0.08)
		reqs := [][]int{
			{0, 1},
			{1, 0}, // reversed dimension order is a distinct cube
			{2, 3},
			{0},          // derived from pair (0,1)
			{3},          // derived from pair (2,3), partner position
			{4},          // no covering pair: dedicated 1-D plan
			{0, 1},       // duplicate shares the cube
			{4, 0, 2},    // ordered 3-D
			{3, 1, 4, 0}, // ordered 4-D
		}
		got, err := BuildMany(ctx, ds, reqs)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, ds, reqs, got)
		if got[0] != got[6] {
			t.Error("duplicate requests should share one cube")
		}
		if _, err := BuildMany(ctx, ds, [][]int{{0, 1}, {}}); err == nil {
			t.Error("an empty attribute list must be rejected")
		}

		// Attribute 4 is the second attribute of three pairs, so it
		// heads them all; (4,1) also asks for the transpose of the
		// flipped (1,4), and 2 (in two pairs) heads (3,2). Attribute
		// 0's 1-D cube derives from a flipped pair's partner position,
		// attribute 4's from its head.
		flipped := [][]int{{0, 4}, {1, 4}, {2, 4}, {4, 1}, {0}, {4}, {3, 2}}
		checkFlips(t, ds, flipped, map[[2]int]bool{{0, 4}: true, {1, 4}: true, {2, 4}: true, {3, 2}: true})
		got, err = BuildMany(ctx, ds, flipped)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, ds, flipped, got)
		if got[1] == got[3] {
			t.Error("(1,4) and (4,1) are distinct cubes")
		}

		// Folding a flipped request's rows in two ranges gives the
		// whole-dataset count.
		mid := ds.NumRows() / 3
		cubes, _, err := countRange(ctx, ds, flipped, 0, mid)
		if err != nil {
			t.Fatal(err)
		}
		if err := FoldRows(ctx, ds, cubes, mid, ds.NumRows()); err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, ds, flipped, cubes)
	}

	t.Run("sharded", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		ds := randomDatasetMissingClass(t, 9, 2*batchShardRows+4099, 4, 5, 3, 0.05)
		reqs := [][]int{{0, 3}, {1, 3}, {2, 3}, {0}, {3, 1}}
		checkFlips(t, ds, reqs, map[[2]int]bool{{0, 3}: true, {1, 3}: true, {2, 3}: true})
		got, err := BuildMany(ctx, ds, reqs)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, ds, reqs, got)
	})
}

// checkAgainstNaive compares each cube with the brute-force recount of
// its request, dimension order included.
func checkAgainstNaive(t *testing.T, ds *dataset.Dataset, reqs [][]int, got []*Cube) {
	t.Helper()
	if len(got) != len(reqs) {
		t.Fatalf("got %d cubes, want %d", len(got), len(reqs))
	}
	for i, attrs := range reqs {
		if !reflect.DeepEqual(got[i].AttrIndices(), attrs) {
			t.Fatalf("req %d: dimensions %v, want %v", i, got[i].AttrIndices(), attrs)
		}
		want, total := naiveCells(ds, attrs)
		if got[i].Total() != total || !reflect.DeepEqual(cubeCells(got[i]), want) {
			t.Errorf("req %d (%v): batch cube differs from brute force", i, attrs)
		}
	}
}

// checkFlips asserts which of the request's pairs the planner heads by
// their second attribute, so the oracle really covers flipped plans.
func checkFlips(t *testing.T, ds *dataset.Dataset, reqs [][]int, want map[[2]int]bool) {
	t.Helper()
	plan, err := planBatch(ds, ds.NumClasses(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range plan.routes {
		if r.kind != routePair {
			continue
		}
		k := [2]int{reqs[i][0], reqs[i][1]}
		if plan.pairs[r.i].flip != want[k] {
			t.Errorf("pair %v: flip = %v, want %v", k, plan.pairs[r.i].flip, want[k])
		}
	}
}

func TestBuildManyValidation(t *testing.T) {
	ds := fig1Dataset(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		reqs [][]int
	}{
		{"out of range", [][]int{{9}}},
		{"negative", [][]int{{-1}}},
		{"class dim", [][]int{{2}}},
		{"class pair", [][]int{{0, 2}}},
		{"self pair", [][]int{{1, 1}}},
		{"empty list", [][]int{{}}},
	} {
		if _, err := BuildMany(ctx, ds, tc.reqs); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	out, err := BuildMany(ctx, ds, nil)
	if err != nil || out != nil {
		t.Errorf("empty request list: got (%v, %v), want (nil, nil)", out, err)
	}
}

func TestBuildManyCounters(t *testing.T) {
	ds := fig1Dataset(t)
	scans := obsv.Default().Counter(CubeScansCounterName)
	built := obsv.Default().Counter(CubesBuiltCounterName)
	s0, b0 := scans.Value(), built.Value()
	// 4 requests, 3 distinct cubes, one scan.
	_, err := BuildMany(context.Background(), ds, [][]int{{0, 1}, {0}, {1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d := scans.Value() - s0; d != 1 {
		t.Errorf("scan counter advanced by %d, want 1", d)
	}
	if d := built.Value() - b0; d != 3 {
		t.Errorf("built counter advanced by %d, want 3", d)
	}
	// A single-cube Build is one scan too.
	s1 := scans.Value()
	if _, err := Build(ds, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if d := scans.Value() - s1; d != 1 {
		t.Errorf("single build advanced scans by %d, want 1", d)
	}
}

func TestBuildManyCancelAndFault(t *testing.T) {
	ds := fig1Dataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildMany(ctx, ds, [][]int{{0, 1}}); err != context.Canceled {
		t.Errorf("canceled ctx: got %v", err)
	}
	disarm, err := faultinject.Arm(faultinject.Fault{Site: faultinject.SiteCubeBatch, Kind: faultinject.Error})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	if _, err := BuildMany(context.Background(), ds, [][]int{{0, 1}}); err == nil {
		t.Error("armed batch fault: expected error")
	}
}

// countdownCtx answers Err() with nil for its first n calls and
// context.Canceled from then on: a cancel that lands at a
// deterministic point inside a scan.
type countdownCtx struct {
	context.Context
	left  atomic.Int64
	calls atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	c.calls.Add(1)
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBuildManyCancelMidScan cancels inside the scan: BuildMany must
// return ctx.Err() before the scan reaches its last row block, advance
// no counter, and leave no row-shard goroutine behind — on a single
// shard and across several.
func TestBuildManyCancelMidScan(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
		rows  int
	}{
		{"single", 1, 20 * scanBlockRows},
		{"sharded", 4, 3 * batchShardRows},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer testutil.VerifyNoLeak(t)()
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			ds := randomDatasetMissingClass(t, 5, tc.rows, 4, 4, 3, 0.05)
			scans := obsv.Default().Counter(CubeScansCounterName)
			s0 := scans.Value()
			ctx := newCountdownCtx(3)
			_, err := BuildMany(ctx, ds, [][]int{{0, 1}, {2}, {0, 1, 3}})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			blocks := int64(tc.rows / scanBlockRows)
			if calls := ctx.calls.Load(); calls >= blocks {
				t.Errorf("ctx checked %d times over %d blocks: the scan ran past the cancel", calls, blocks)
			}
			if d := scans.Value() - s0; d != 0 {
				t.Errorf("canceled scan advanced the scan counter by %d", d)
			}
		})
	}
}

// TestBuildManySharded forces the parallel shard-and-merge path by
// raising GOMAXPROCS over a dataset large enough to split, and checks
// the merged counts against the same requests counted in one pass.
func TestBuildManySharded(t *testing.T) {
	rows := 3 * batchShardRows
	ds := randomDatasetMissingClass(t, 42, rows, 3, 4, 2, 0.05)
	reqs := [][]int{{0, 1}, {2}, {2, 0, 1}}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	single, err := BuildMany(context.Background(), ds, reqs)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	got, err := BuildMany(context.Background(), ds, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if !reflect.DeepEqual(got[i], single[i]) {
			t.Errorf("sharded cube %d differs from the single-pass count", i)
		}
	}
}

// BenchmarkBatchVsSequential records the shared-scan win over N
// independent builds for a sweep-shaped request set (one split
// attribute against every other).
func BenchmarkBatchVsSequential(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const rows, attrs, card, classes = 20000, 40, 8, 3
	schema := dataset.Schema{ClassIndex: attrs}
	for i := 0; i < attrs; i++ {
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: fmt.Sprintf("a%d", i), Kind: dataset.Categorical})
	}
	schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: "class", Kind: dataset.Categorical})
	bl, err := dataset.NewBuilder(schema)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < attrs; i++ {
		d := dataset.NewDictionary()
		for v := 0; v < card; v++ {
			d.Code(fmt.Sprintf("v%d", v))
		}
		bl.WithDict(i, d)
	}
	cd := dataset.NewDictionary()
	for c := 0; c < classes; c++ {
		cd.Code(fmt.Sprintf("c%d", c))
	}
	bl.WithDict(attrs, cd)
	codes := make([]int32, attrs+1)
	for r := 0; r < rows; r++ {
		for i := 0; i < attrs; i++ {
			codes[i] = int32(rng.Intn(card))
		}
		codes[attrs] = int32(rng.Intn(classes))
		if err := bl.AddCodedRow(codes, nil); err != nil {
			b.Fatal(err)
		}
	}
	ds, err := bl.Build()
	if err != nil {
		b.Fatal(err)
	}
	reqs := [][]int{{0}}
	for ai := 1; ai < attrs; ai++ {
		reqs = append(reqs, []int{0, ai}, []int{ai})
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildMany(context.Background(), ds, reqs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range reqs {
				if _, err := Build(ds, q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
