package dataset

import (
	"strings"
	"testing"
)

// FuzzReadCSV hardens the loader and checks it against the two-pass
// reference: arbitrary text must either parse into a queryable dataset
// or fail with an error — never panic — and ReadCSV must agree with
// readCSVReference on which, and on every column when both load. The
// option bits let the fuzzer reach declared kinds, a class override, a
// custom separator and small sniffing thresholds.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b,class\nx,1.5,yes\ny,2.5,no\n", uint8(0), uint8(0))
	f.Add("class\nyes\n", uint8(0), uint8(0))
	f.Add("", uint8(0), uint8(0))
	f.Add("a,b\n\"unterminated", uint8(0), uint8(0))
	f.Add("a,b,class\n?,?,?\n", uint8(0), uint8(0))
	f.Add("a,a,class\nx,y,z\n", uint8(0), uint8(0)) // duplicate attribute names
	f.Add("a,b,class\n1,x,p\n2,,q\n3,?,p\n 4 ,y,q\n", uint8(2), uint8(0))
	f.Add("a,b,class\n1.5abc,2,p\n", uint8(0), uint8(1))
	f.Add("class;a;b\np;\"x;y\";1\nq;z;2\n", uint8(1), uint8(2|4))
	f.Add("a,class\n1,p\n1.0,p\n?,q\n2,p\n,q\n3,p\n007,p\nx,q\n2,p\n", uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, input string, maxCard, flags uint8) {
		opts := CSVOptions{MaxSniffCardinality: int(maxCard % 8)}
		if flags&1 != 0 {
			opts.Kinds = map[string]Kind{"a": Continuous, "b": Categorical}
		}
		if flags&2 != 0 {
			opts.ClassAttr = "class"
		}
		if flags&4 != 0 {
			opts.Comma = ';'
		}
		ds, err, _ := compareWithReference(t, input, opts)
		if err != nil {
			return
		}
		// Parsed datasets must answer basic queries.
		_ = ds.ClassDistribution()
		p := Describe(ds)
		if p.Rows != ds.NumRows() {
			t.Fatalf("profile rows %d != dataset rows %d", p.Rows, ds.NumRows())
		}
		for r := 0; r < ds.NumRows() && r < 10; r++ {
			if len(ds.Row(r)) != ds.NumAttrs() {
				t.Fatal("row width mismatch")
			}
		}
	})
}

// FuzzReadARFF hardens the ARFF loader the same way.
func FuzzReadARFF(f *testing.F) {
	f.Add("@relation t\n@attribute a {x,y}\n@attribute c {p,n}\n@data\nx,p\ny,n\n")
	f.Add("@relation t\n@attribute a numeric\n@attribute c {p}\n@data\n1.5,p\n")
	f.Add("@data\n")
	f.Add("@relation t\n@attribute 'q a' {('}\n@data\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		ds, err := ReadARFF(strings.NewReader(input), "")
		if err != nil {
			return
		}
		_ = ds.ClassDistribution()
		_ = Describe(ds)
	})
}
