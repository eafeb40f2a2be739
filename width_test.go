package opmap

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"opmap/internal/rulecube"
)

// TestAppendSeqCrossesByteWidth ingests, in an eager and a lazy
// session, a batch whose middle row registers a column's 256th label,
// so the column widens from one byte a row mid-batch, then a batch
// that only reuses labels, which folds through the plan kept from the
// first. After each, every resident cube — the eager session's drilled
// k ≥ 3 cubes included — must equal a fresh BuildMany over the grown
// dataset, and the widened column must read back every row.
func TestAppendSeqCrossesByteWidth(t *testing.T) {
	ctx := context.Background()
	row := func(i int) []string {
		region := fmt.Sprintf("r%03d", i%255)
		if i%29 == 6 {
			region = "?"
		}
		return []string{region, fmt.Sprintf("m%d", i%3), fmt.Sprintf("s%d", i%4), []string{"ok", "fail"}[i*7%11%2]}
	}
	var csv strings.Builder
	csv.WriteString("Region,Model,Shift,Outcome\n")
	for i := 0; i < 600; i++ {
		csv.WriteString(strings.Join(row(i), ",") + "\n")
	}
	var first, second [][]string
	for i := 600; i < 640; i++ {
		r := row(i)
		if i >= 620 {
			r[0] = fmt.Sprintf("r%03d", 255+i%7) // the first is the 256th label
		}
		first = append(first, r)
	}
	for i := 640; i < 700; i++ {
		r := row(i)
		if i%2 == 0 {
			r[0] = fmt.Sprintf("r%03d", 255+i%7)
		}
		second = append(second, r)
	}
	drilled := [][]int{{0, 1, 2}, {2, 0, 1}}

	for _, lazy := range []bool{false, true} {
		t.Run(fmt.Sprintf("lazy=%t", lazy), func(t *testing.T) {
			s, err := LoadCSV(strings.NewReader(csv.String()), LoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.BuildCubesOptions(ctx, BuildOptions{Lazy: lazy}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.src.Cubes(ctx, append([][]int{{0}, {0, 1}, {1, 2}}, drilled...)); err != nil {
				t.Fatal(err)
			}
			if s.ds.Cardinality(0) != 255 {
				t.Fatalf("base Region has %d labels, want 255", s.ds.Cardinality(0))
			}
			if _, wide := s.ds.Column(0).Stored(); wide != nil {
				t.Fatal("a 255-label column is stored wide")
			}
			var all [][]string
			for i := 0; i < 600; i++ {
				all = append(all, row(i))
			}
			for seq, batch := range [][][]string{first, second} {
				if err := s.AppendSeq(ctx, batch, uint64(seq+1)); err != nil {
					t.Fatal(err)
				}
				all = append(all, batch...)
				if _, wide := s.ds.Column(0).Stored(); wide == nil {
					t.Fatalf("batch %d: Region has %d labels but is stored narrow", seq+1, s.ds.Cardinality(0))
				}
				for r, want := range all {
					if got := s.ds.Label(r, 0); got != want[0] {
						t.Fatalf("batch %d: row %d Region reads %q, want %q", seq+1, r, got, want[0])
					}
				}
				var resident []*rulecube.Cube
				if lazy {
					resident = s.lazy.ResidentCubes()
				} else {
					cubes, err := s.src.Cubes(ctx, drilled)
					if err != nil {
						t.Fatal(err)
					}
					resident = append(s.store.Cubes(), cubes...)
				}
				if len(resident) == 0 {
					t.Fatal("no resident cubes to check")
				}
				for _, c := range resident {
					fresh, err := rulecube.BuildMany(ctx, s.ds, [][]int{c.AttrIndices()})
					if err != nil {
						t.Fatal(err)
					}
					if got, want := cubeLabelCells(c), cubeLabelCells(fresh[0]); !reflect.DeepEqual(got, want) || c.Total() != fresh[0].Total() {
						t.Errorf("batch %d: cube %v differs from a fresh BuildMany", seq+1, c.AttrNames())
					}
				}
			}
		})
	}
}
