package opmap

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"opmap/internal/dataset"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
	"opmap/internal/testutil"
)

// ingestBatches are appended after the base rows. They register a new
// Region label and a new class mid-batch and carry missing values in
// categorical, continuous and class columns.
var ingestBatches = [][][]string{
	{
		{"north", "m1", "12.5", "30", "ok"},
		{"center", "m2", "55.5", "10", "fail"}, // new Region label
		{"south", "?", "80.5", "70", "slow"},
		{"east", "m3", "33.5", "45", "?"}, // missing class
		{"center", "m1", "?", "5", "ok"},
	},
	{
		{"west", "m2", "91.5", "65", "down"}, // new class
		{"?", "m3", "40.5", "?", "down"},
		{"center", "m3", "66.5", "25", "fail"},
	},
}

// labelCells recounts the cube over attrs straight off ds's rows, one
// entry per nonzero cell keyed by its labels, so sessions whose
// dictionaries list labels in different orders still compare. Rows
// with the class or any dimension missing are skipped.
func labelCells(ds *dataset.Dataset, attrs []int) map[string]int64 {
	cells := make(map[string]int64)
	labels := make([]string, len(attrs))
	for r := 0; r < ds.NumRows(); r++ {
		c := ds.ClassCode(r)
		if c < 0 {
			continue
		}
		ok := true
		for i, a := range attrs {
			v := ds.CatCode(r, a)
			if v < 0 {
				ok = false
				break
			}
			labels[i] = ds.Column(a).Dict.Label(v)
		}
		if ok {
			cells[fmt.Sprint(labels, ds.ClassDict().Label(c))]++
		}
	}
	return cells
}

// cubeLabelCells flattens a cube's nonzero cells into labelCells form.
func cubeLabelCells(c *rulecube.Cube) map[string]int64 {
	cells := make(map[string]int64)
	labels := make([]string, c.NumDims())
	c.ForEach(func(values []int32, class int32, n int64) {
		if n == 0 {
			return
		}
		for i, v := range values {
			labels[i] = c.Dict(i).Label(v)
		}
		cells[fmt.Sprint(labels, c.ClassDict().Label(class))] += n
	})
	return cells
}

// TestAppendFoldsMatchRecount is the ingest ≡ rebuild oracle: after
// appended batches fold in through the counting kernel, every resident
// cube of every session origin equals a brute-force recount of the
// grown dataset, taken from a session that loaded all rows at once.
func TestAppendFoldsMatchRecount(t *testing.T) {
	defer testutil.VerifyNoLeak(t)()
	ctx := context.Background()
	base := ingestRows(120)
	all := append([][]string(nil), base...)
	for _, b := range ingestBatches {
		all = append(all, b...)
	}
	ref := loadIngestSession(t, all, false)
	drilled := [][]int{{0, 1, 2}, {1, 3, 2, 0}}

	restore := func(t *testing.T) *Session {
		path := t.TempDir() + "/s.omapsnap"
		if err := loadIngestSession(t, base, false).SaveSnapshotFile(path, SnapshotOptions{}); err != nil {
			t.Fatal(err)
		}
		s, err := LoadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	merge := func(t *testing.T) *Session {
		dir := t.TempDir()
		paths := []string{dir + "/a.omapsnap", dir + "/b.omapsnap"}
		for i, rows := range [][][]string{base[:50], base[50:]} {
			if err := loadIngestSession(t, rows, false).SaveSnapshotFile(paths[i], SnapshotOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		s, err := LoadShardSnapshots(paths...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, tc := range []struct {
		name  string
		open  func(t *testing.T) *Session
		drill bool // touch k ≥ 3 cubes before the appends
	}{
		{"eager", func(t *testing.T) *Session { return loadIngestSession(t, base, false) }, true},
		{"lazy", func(t *testing.T) *Session { return loadIngestSession(t, base, true) }, true},
		{"restored", restore, false},
		{"merged", merge, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			if s.lazy != nil {
				// Pin a 1-D cube and cache a pair before the appends.
				if _, err := s.src.Cube1(ctx, 0); err != nil {
					t.Fatal(err)
				}
				if _, err := s.src.Cube2(ctx, 0, 3); err != nil {
					t.Fatal(err)
				}
			}
			if tc.drill {
				if _, err := s.src.Cubes(ctx, drilled); err != nil {
					t.Fatal(err)
				}
			}
			for _, b := range ingestBatches {
				if err := s.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			var resident []*rulecube.Cube
			if s.lazy != nil {
				resident = s.lazy.ResidentCubes()
			} else {
				resident = s.store.Cubes()
			}
			if tc.drill && s.lazy == nil {
				// The eager session's drilled cubes live in its internal
				// k ≥ 3 cache: serving them must not rebuild.
				built := obsv.Default().Counter(rulecube.CubesBuiltCounterName)
				b0 := built.Value()
				cubes, err := s.src.Cubes(ctx, drilled)
				if err != nil {
					t.Fatal(err)
				}
				if d := built.Value() - b0; d != 0 {
					t.Fatalf("drilled cubes were rebuilt (%d builds) instead of folded", d)
				}
				resident = append(resident, cubes...)
			}
			if len(resident) == 0 {
				t.Fatal("no resident cubes to check")
			}
			for _, c := range resident {
				want := labelCells(ref.ds, c.AttrIndices())
				if got := cubeLabelCells(c); !reflect.DeepEqual(got, want) {
					t.Errorf("cube %v differs from the recount:\ngot  %v\nwant %v", c.AttrNames(), got, want)
				}
				for pos, a := range c.AttrIndices() {
					if c.Dim(pos) != ref.ds.Cardinality(a) {
						t.Errorf("cube %v dimension %d = %d, want %d", c.AttrNames(), pos, c.Dim(pos), ref.ds.Cardinality(a))
					}
				}
				if c.NumClasses() != ref.ds.NumClasses() {
					t.Errorf("cube %v has %d classes, want %d", c.AttrNames(), c.NumClasses(), ref.ds.NumClasses())
				}
			}
			if got, want := s.NumRows(), ref.NumRows(); got != want {
				t.Errorf("rows = %d, want %d", got, want)
			}
			arities := make(map[int]bool)
			for _, c := range resident {
				arities[min(c.NumDims(), 3)] = true
			}
			want := 2 // 1-D and pairs
			if tc.drill {
				want = 3
			}
			if len(arities) != want {
				t.Errorf("resident cube arities %v: want 1-D, pairs and (drilled) k ≥ 3 covered", arities)
			}
		})
	}
}
