package rulecube_test

import (
	"context"
	"testing"

	"opmap/internal/rulecube"
	"opmap/internal/workload"
)

// benchPairCube builds a 3-D cube over two moderately wide attributes
// of the synthetic call log, the shape Slice/Rollup/Dice iterate over
// in the compare and GI hot paths.
func benchPairCube(b *testing.B) *rulecube.Cube {
	b.Helper()
	ds, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 1, Records: 30000, NumPhones: 24, NoiseAttrs: 2})
	if err != nil {
		b.Fatal(err)
	}
	phone := ds.AttrIndex(gt.PhoneAttr)
	tower := ds.AttrIndex(gt.DistinguishingAttr)
	cube, err := rulecube.Build(ds, []int{phone, tower})
	if err != nil {
		b.Fatal(err)
	}
	return cube
}

func BenchmarkCubeSlice(b *testing.B) {
	cube := benchPairCube(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.Slice(0, int32(i%cube.Dim(0))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCubeRollup(b *testing.B) {
	cube := benchPairCube(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.Rollup(i % 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCubeDice(b *testing.B) {
	cube := benchPairCube(b)
	values := []int32{0, 1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cube.Dice(0, values); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildManyCompare times the counting kernel on a compare's
// working set at the lazy-wide serving shape: a 30k-row, 146-attribute
// call log, one split attribute's 1-D cube plus its pair cube with 12
// candidates, pairs in ascending attribute order as lazy sources
// request them. Each iteration takes the next 12 candidates, so the
// columns a scan reads were last touched about ten scans earlier and
// come from beyond the L2 cache, as they do when a cube cache a
// quarter the size of the pair cubes keeps missing.
func BenchmarkBuildManyCompare(b *testing.B) {
	ds, gt, err := workload.CallLog(workload.CallLogConfig{Seed: 1, Records: 30000, NumPhones: 8, NoiseAttrs: 140})
	if err != nil {
		b.Fatal(err)
	}
	split := ds.AttrIndex(gt.PhoneAttr)
	var cands []int
	for a := 0; a < ds.NumAttrs(); a++ {
		if a != split && a != ds.ClassIndex() {
			cands = append(cands, a)
		}
	}
	const perCompare = 12
	var sets [][][]int
	for lo := 0; lo+perCompare <= len(cands); lo += perCompare {
		reqs := [][]int{{split}}
		for _, c := range cands[lo : lo+perCompare] {
			reqs = append(reqs, []int{min(split, c), max(split, c)})
		}
		sets = append(sets, reqs)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rulecube.BuildMany(ctx, ds, sets[i%len(sets)]); err != nil {
			b.Fatal(err)
		}
	}
}
