package engine

import (
	"context"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
	"opmap/internal/workload"
)

// TestCacheBytesGaugeSumsSources loads several cube caches side by
// side — two lazy sources with budgets small enough to evict, and an
// eager source whose internal cache holds drilled k ≥ 3 cubes — and
// checks the shared cache-bytes gauge equals the sum of their resident
// bytes through builds, evictions, ingest growth and Close.
func TestCacheBytesGaugeSumsSources(t *testing.T) {
	ctx := context.Background()
	gauge := obsv.Default().Gauge(CubeCacheBytesGaugeName)
	g0 := gauge.Value()

	var dss []*dataset.Dataset
	var lazies []*LazySource
	for seed := int64(1); seed <= 2; seed++ {
		ds, _, err := workload.CallLog(workload.CallLogConfig{Seed: seed, Records: 3000, NumPhones: 6, NoiseAttrs: 4})
		if err != nil {
			t.Fatal(err)
		}
		pair := rulecube.EstimateCubeBytes(ds, []int{0, 1})
		src, err := NewLazy(ds, LazyOptions{CacheBytes: 3 * pair})
		if err != nil {
			t.Fatal(err)
		}
		dss, lazies = append(dss, ds), append(lazies, src)
	}
	store, err := rulecube.BuildStore(dss[0], rulecube.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eager := NewEager(store)

	check := func(when string) {
		t.Helper()
		var sum int64
		for _, src := range lazies {
			sum += src.Stats().CachedBytes
		}
		if eager.nd != nil {
			sum += eager.nd.Stats().CachedBytes
		}
		if got := gauge.Value() - g0; got != sum {
			t.Errorf("%s: gauge moved by %d, resident bytes sum to %d", when, got, sum)
		}
	}

	attrs := lazies[0].Attrs()
	for _, src := range lazies {
		for i, a := range attrs {
			for _, b := range attrs[i+1:] {
				if _, err := src.Cube2(ctx, a, b); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := eager.Cubes(ctx, [][]int{attrs[:3], attrs[1:4]}); err != nil {
		t.Fatal(err)
	}
	for _, src := range lazies {
		if src.Stats().Evictions == 0 {
			t.Fatal("budget too loose: no evictions forced")
		}
	}
	check("after builds and evictions")

	// Rows with a new label grow the resident cubes of ds 0's sources.
	ds := dss[0]
	n0 := ds.NumRows()
	row := make([]string, ds.NumAttrs())
	for a := range row {
		row[a] = ds.Column(a).Dict.Label(ds.CatCode(0, a))
	}
	row[attrs[0]] = "never-seen"
	if err := ds.AppendRow(row); err != nil {
		t.Fatal(err)
	}
	if err := lazies[0].FoldRows(ctx, n0, ds.NumRows()); err != nil {
		t.Fatal(err)
	}
	if err := eager.FoldRows(ctx, n0, ds.NumRows()); err != nil {
		t.Fatal(err)
	}
	check("after ingest growth")

	lazies[1].Close()
	eager.Close()
	check("after Close")
	lazies[0].Close()
	if got := gauge.Value(); got != g0 {
		t.Errorf("gauge = %d after closing every source, want %d", got, g0)
	}
}
