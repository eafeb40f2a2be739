package dataset

import (
	"reflect"
	"testing"
)

// TestAppendParsedRowMatchesAppendRow: appending a row with its
// continuous fields pre-parsed gives the dataset AppendRow gives, and
// a continuous schema without parsed values is refused untouched.
func TestAppendParsedRowMatchesAppendRow(t *testing.T) {
	build := func() *Dataset {
		b, err := NewBuilder(Schema{
			Attrs:      []Attribute{{Name: "x", Kind: Continuous}, {Name: "r", Kind: Categorical}, {Name: "class", Kind: Categorical}},
			ClassIndex: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddRow([]string{"1.5", "north", "yes"}); err != nil {
			t.Fatal(err)
		}
		ds, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	row := []string{"2.25", "south", "no"}
	want, got := build(), build()
	if err := want.AppendRow(row); err != nil {
		t.Fatal(err)
	}
	if err := got.AppendParsedRow(row, []float64{2.25, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendParsedRow differs from AppendRow:\n got %+v\nwant %+v", got, want)
	}
	if err := got.AppendParsedRow(row, nil); err == nil {
		t.Error("a continuous schema accepted a row without parsed values")
	}
	if err := got.AppendParsedRow(row[:2], []float64{1, 0}); err == nil {
		t.Error("a short row was accepted")
	}
	if got.NumRows() != 2 {
		t.Errorf("rejected rows changed the row count to %d", got.NumRows())
	}
}
