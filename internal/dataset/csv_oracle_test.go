package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// readCSVReference is the two-pass loader that ReadCSV replaced, kept
// as the oracle for the one-pass one. It holds every trimmed record in
// a [][]string buffer, sniffs each undeclared column with a pass over
// that buffer, and then encodes the rows through a Builder with the
// old field rules. Continuous fields parse with fmt.Sscanf("%g"), which
// ignores text after the number. The fields it accepted only because
// of that are returned in lenient; the strict ReadCSV rejects them.
func readCSVReference(r io.Reader, opts CSVOptions) (ds *Dataset, lenient []string, err error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if opts.MaxColumns > 0 && len(header) > opts.MaxColumns {
		return nil, nil, fmt.Errorf("dataset: CSV header has %d columns, limit is %d", len(header), opts.MaxColumns)
	}
	if err := checkRecordBytes(header, 1, opts.MaxRecordBytes); err != nil {
		return nil, nil, err
	}
	names := make([]string, len(header))
	for i, h := range header {
		names[i] = strings.TrimSpace(h)
	}

	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: reading CSV row %d: %w", len(rows)+2, err)
		}
		if opts.MaxRows > 0 && len(rows) >= opts.MaxRows {
			return nil, nil, fmt.Errorf("dataset: CSV exceeds %d data rows", opts.MaxRows)
		}
		if err := checkRecordBytes(rec, len(rows)+2, opts.MaxRecordBytes); err != nil {
			return nil, nil, err
		}
		row := make([]string, len(rec))
		for i, v := range rec {
			row[i] = strings.TrimSpace(v)
		}
		if len(row) != len(names) {
			return nil, nil, fmt.Errorf("dataset: CSV row %d has %d fields, header has %d", len(rows)+2, len(row), len(names))
		}
		rows = append(rows, row)
	}

	classIdx := len(names) - 1
	if opts.ClassAttr != "" {
		classIdx = -1
		for i, n := range names {
			if n == opts.ClassAttr {
				classIdx = i
				break
			}
		}
		if classIdx < 0 {
			return nil, nil, fmt.Errorf("dataset: class attribute %q not found in CSV header", opts.ClassAttr)
		}
	}

	maxCard := opts.MaxSniffCardinality
	if maxCard == 0 {
		maxCard = 32
	}
	attrs := make([]Attribute, len(names))
	for i, n := range names {
		kind := Categorical
		if k, ok := opts.Kinds[n]; ok {
			kind = k
		} else if i != classIdx {
			kind = referenceSniffKind(rows, i, maxCard)
		}
		if i == classIdx {
			kind = Categorical
		}
		attrs[i] = Attribute{Name: n, Kind: kind}
	}

	b, err := NewBuilder(Schema{Attrs: attrs, ClassIndex: classIdx})
	if err != nil {
		return nil, nil, err
	}
	codes := make([]int32, len(names))
	values := make([]float64, len(names))
	for _, row := range rows {
		for i, v := range row {
			c := &b.cols[i]
			if c.Kind == Categorical {
				if v == MissingLabel {
					codes[i] = Missing
				} else {
					codes[i] = c.Dict.Code(v)
				}
				continue
			}
			if v == MissingLabel || v == "" {
				values[i] = math.NaN()
				continue
			}
			if _, err := fmt.Sscanf(v, "%g", &values[i]); err != nil {
				return nil, lenient, fmt.Errorf("dataset: attribute %q: cannot parse %q as number: %v", names[i], v, err)
			}
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				lenient = append(lenient, v)
			}
		}
		if err := b.AddCodedRow(codes, values); err != nil {
			return nil, lenient, err
		}
	}
	ds, err = b.Build()
	return ds, lenient, err
}

// referenceSniffKind is the per-row sniffing pass of the two-pass
// loader.
func referenceSniffKind(rows [][]string, col, maxCard int) Kind {
	distinct := make(map[string]struct{})
	numeric := true
	for _, row := range rows {
		v := row[col]
		if v == MissingLabel || v == "" {
			continue
		}
		if numeric {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				numeric = false
			}
		}
		if len(distinct) <= maxCard {
			distinct[v] = struct{}{}
		}
		if !numeric && len(distinct) > maxCard {
			break
		}
	}
	if numeric && len(distinct) > maxCard {
		return Continuous
	}
	return Categorical
}

// datasetDiff describes the first difference between two loaded
// datasets, or returns "" when they agree on names, kinds, class index,
// dictionary label order, codes and float bits (NaN positions
// included).
func datasetDiff(got, want *Dataset) string {
	if got.NumRows() != want.NumRows() || got.NumAttrs() != want.NumAttrs() {
		return fmt.Sprintf("shape %d×%d, want %d×%d", got.NumRows(), got.NumAttrs(), want.NumRows(), want.NumAttrs())
	}
	if got.ClassIndex() != want.ClassIndex() {
		return fmt.Sprintf("class index %d, want %d", got.ClassIndex(), want.ClassIndex())
	}
	for a := 0; a < want.NumAttrs(); a++ {
		if got.Attr(a) != want.Attr(a) {
			return fmt.Sprintf("attribute %d is %+v, want %+v", a, got.Attr(a), want.Attr(a))
		}
		gc, wc := got.Column(a), want.Column(a)
		if gc.Kind != wc.Kind || (gc.Dict == nil) != (wc.Dict == nil) {
			return fmt.Sprintf("column %d storage kind %v (dict %t), want %v (dict %t)", a, gc.Kind, gc.Dict != nil, wc.Kind, wc.Dict != nil)
		}
		if wc.Dict != nil {
			gl, wl := gc.Dict.Labels(), wc.Dict.Labels()
			if !slices.Equal(gl, wl) {
				return fmt.Sprintf("column %d labels %q, want %q", a, gl, wl)
			}
		}
		if len(gc.Codes) != len(wc.Codes) || len(gc.Values) != len(wc.Values) {
			return fmt.Sprintf("column %d holds %d codes and %d values, want %d and %d", a, len(gc.Codes), len(gc.Values), len(wc.Codes), len(wc.Values))
		}
		for r := range wc.Codes {
			if gc.Codes[r] != wc.Codes[r] {
				return fmt.Sprintf("column %d row %d code %d, want %d", a, r, gc.Codes[r], wc.Codes[r])
			}
		}
		for r := range wc.Values {
			g, w := gc.Values[r], wc.Values[r]
			if math.IsNaN(g) != math.IsNaN(w) || (!math.IsNaN(w) && math.Float64bits(g) != math.Float64bits(w)) {
				return fmt.Sprintf("column %d row %d value %v (bits %#x), want %v (bits %#x)", a, r, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	return ""
}

// compareWithReference loads input with both loaders and fails t
// unless they agree on error versus success and, on success, on every
// column. The one divergence allowed is strict number parsing: the
// reference accepted a continuous field with text after its number,
// and ReadCSV rejects that very field. strictOnly reports that case.
// It returns ReadCSV's result.
func compareWithReference(t *testing.T, input string, opts CSVOptions) (got *Dataset, gerr error, strictOnly bool) {
	t.Helper()
	want, lenient, werr := readCSVReference(strings.NewReader(input), opts)
	got, gerr = ReadCSV(strings.NewReader(input), opts)
	if werr == nil && gerr != nil && len(lenient) > 0 {
		if msg := fmt.Sprintf("cannot parse %q as number", lenient[0]); !strings.Contains(gerr.Error(), msg) {
			t.Fatalf("reference accepted %q leniently; ReadCSV failed with %q instead of rejecting it", lenient[0], gerr)
		}
		return got, gerr, true
	}
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("error mismatch: ReadCSV %v, reference %v\ninput %q", gerr, werr, input)
	}
	if werr == nil {
		if d := datasetDiff(got, want); d != "" {
			t.Fatalf("ReadCSV disagrees with the reference: %s\ninput %q", d, input)
		}
	}
	return got, gerr, false
}

// sniffBoundaryCSV builds a CSV whose numeric columns sit on either side
// of the sniffing threshold maxCard: "exact" has maxCard distinct
// numbers, "over" has maxCard+1, and both also hold "?" and "", which
// the rule does not count.
func sniffBoundaryCSV(maxCard int) string {
	var sb strings.Builder
	sb.WriteString("exact,over,class\n")
	for i := 0; i < 2*(maxCard+1); i++ {
		fmt.Fprintf(&sb, "%d.25,%d.5,c%d\n", i%maxCard, i%(maxCard+1), i%3)
	}
	sb.WriteString("?,?,c0\n,,c1\n")
	return sb.String()
}

// oddLabels are numeric labels whose values print differently (zero
// padding, trailing zeros, signs, other spellings of NaN and
// infinity), mixed with missing values and repeats.
const oddLabels = "007,c\n1.50,c\n?,c\n,c\nNaN,c\nnan,c\n+5,c\n1e3,c\n-0,c\n0.0,c\n\" 3 \",c\n007,c\ninf,c\n+Inf,c\n1.50,c\n41,c\n"

// missingEverywhereCSV puts "?" and "" into every kind of column: a
// sniffed categorical, a sniffed continuous, a declared categorical, a
// declared continuous and the class.
func missingEverywhereCSV() string {
	var sb strings.Builder
	sb.WriteString("cat,cont,dcat,dcont,class\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "v%d,%d.125,%d,%d,c%d\n", i%4, i, i%5, i, i%2)
	}
	sb.WriteString("?,?,?,?,?\n,,,,\n ? , , ? , ? ,\n")
	return sb.String()
}

func TestReadCSVMatchesReference(t *testing.T) {
	declared := map[string]Kind{"dcat": Categorical, "dcont": Continuous}
	manyNumbers := func(extra string) string {
		var sb strings.Builder
		sb.WriteString("x,class\n")
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&sb, "%d,c\n", i)
		}
		sb.WriteString(extra)
		return sb.String()
	}
	cases := []struct {
		name       string
		input      string
		opts       CSVOptions
		wantErr    bool
		strictOnly bool
		kinds      []Kind // when set, the kinds the load must resolve
	}{
		{name: "quoted commas and newlines", input: "a,b,class\n\"x,1\",\"line\nbreak\",yes\n\"x,1\",plain,no\n\"y\",\"line\nbreak\",yes\n"},
		{name: "whitespace padding", input: "  a , b ,class \n  x , 1.5 , yes\n y,2.5,no \n\tx\t,\t3.5,yes\n"},
		{name: "missing in every kind", input: missingEverywhereCSV(), opts: CSVOptions{Kinds: declared}, kinds: []Kind{Categorical, Continuous, Categorical, Continuous, Categorical}},
		{name: "sniff boundary default", input: sniffBoundaryCSV(32), kinds: []Kind{Categorical, Continuous, Categorical}},
		{name: "sniff boundary custom", input: sniffBoundaryCSV(5), opts: CSVOptions{MaxSniffCardinality: 5}, kinds: []Kind{Categorical, Continuous, Categorical}},
		{name: "sniff only empty beyond threshold", input: "x,class\n1,a\n2,b\n3,a\n,b\n?,a\n", opts: CSVOptions{MaxSniffCardinality: 3}, kinds: []Kind{Categorical, Categorical}},
		{name: "number syntaxes", input: manyNumbers("1e3,c\n0x1p3,c\nInf,c\n-Inf,c\nNaN,c\n+5,c\n-0,c\n.5,c\n5.,c\n1E-3,c\n"), kinds: []Kind{Continuous, Categorical}},
		{name: "text after many numbers", input: manyNumbers("abc,c\n"), kinds: []Kind{Categorical, Categorical}},
		{name: "garbage number in sniffed column", input: manyNumbers("1.5abc,c\n")},
		// Labels a number's value does not spell back, before and after
		// the column turns continuous, and then text that turns it back.
		{name: "odd labels stay continuous", input: manyNumbers(oddLabels), kinds: []Kind{Continuous, Categorical}},
		{name: "odd labels then text", input: manyNumbers(oddLabels + "abc,c\n5,c\n1.50,c\n?,c\n,c\n"), kinds: []Kind{Categorical, Categorical}},
		{name: "odd labels under small threshold", input: "x,class\n1,a\n1.0,a\n?,b\n2,a\n,b\n3,a\n1.0,a\nfoo,b\n2,a\n", opts: CSVOptions{MaxSniffCardinality: 2}, kinds: []Kind{Categorical, Categorical}},
		{name: "negative threshold", input: "x,class\n?,a\n?,b\n", opts: CSVOptions{MaxSniffCardinality: -1}, kinds: []Kind{Continuous, Categorical}},
		{name: "negative threshold then text", input: "x,class\n?,a\n,b\nfoo,a\n", opts: CSVOptions{MaxSniffCardinality: -1}, kinds: []Kind{Categorical, Categorical}},
		{name: "declared kinds", input: sniffBoundaryCSV(32), opts: CSVOptions{Kinds: map[string]Kind{"exact": Continuous, "over": Categorical}}, kinds: []Kind{Continuous, Categorical, Categorical}},
		{name: "class override", input: "class,x,y\nyes,1,a\nno,2,b\nyes,3,a\n", opts: CSVOptions{ClassAttr: "class", Kinds: map[string]Kind{"class": Continuous}}, kinds: []Kind{Categorical, Categorical, Categorical}},
		{name: "class override middle", input: "x,class,y\n1,yes,a\n2,no,b\n", opts: CSVOptions{ClassAttr: "class"}},
		{name: "unknown class", input: "x,class\n1,yes\n", opts: CSVOptions{ClassAttr: "nope"}, wantErr: true},
		{name: "semicolon comma", input: "a;b;class\nx,1;2.5;yes\ny;3;no\n", opts: CSVOptions{Comma: ';'}},
		{name: "tab comma", input: "a\tclass\nx\tyes\n\"y\tz\"\tno\n", opts: CSVOptions{Comma: '\t'}},
		{name: "max rows over", input: limitsCSV, opts: CSVOptions{MaxRows: 2}, wantErr: true},
		{name: "max rows at", input: limitsCSV, opts: CSVOptions{MaxRows: 3}},
		{name: "max columns over", input: limitsCSV, opts: CSVOptions{MaxColumns: 2}, wantErr: true},
		{name: "max columns at", input: limitsCSV, opts: CSVOptions{MaxColumns: 3}},
		{name: "max record bytes row", input: "a,b,class\nx," + strings.Repeat("v", 100) + ",yes\n", opts: CSVOptions{MaxRecordBytes: 50}, wantErr: true},
		{name: "max record bytes header", input: strings.Repeat("h", 100) + ",class\nx,yes\n", opts: CSVOptions{MaxRecordBytes: 50}, wantErr: true},
		{name: "max record bytes at", input: limitsCSV, opts: CSVOptions{MaxRecordBytes: 8}},
		{name: "ragged short row", input: "a,b,class\nx,y\n", wantErr: true},
		{name: "ragged long row", input: "a,b,class\nx,y,z,w\n", wantErr: true},
		{name: "ragged lazy quotes", input: "a,class\nx,\"y\n", wantErr: true},
		{name: "empty input", input: "", wantErr: true},
		{name: "header only", input: "a,b,class\n"},
		{name: "duplicate names", input: "a,a,class\nx,y,z\n", wantErr: true},
		{name: "empty name", input: "a, ,class\nx,y,z\n", wantErr: true},
		{name: "bad number in declared column", input: "a,class\nxyz,yes\n", opts: CSVOptions{Kinds: map[string]Kind{"a": Continuous}}, wantErr: true},
		{name: "trailing garbage", input: "a,class\n1.5abc,yes\n2,no\n", opts: CSVOptions{Kinds: map[string]Kind{"a": Continuous}}, wantErr: true, strictOnly: true},
		{name: "second number in field", input: "a,class\n2,no\n1.5 2,yes\n", opts: CSVOptions{Kinds: map[string]Kind{"a": Continuous}}, wantErr: true, strictOnly: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err, strictOnly := compareWithReference(t, tc.input, tc.opts)
			if strictOnly != tc.strictOnly {
				t.Errorf("strict-parse divergence = %v, want %v", strictOnly, tc.strictOnly)
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("ReadCSV error = %v, want error %v", err, tc.wantErr)
			}
			for a, k := range tc.kinds {
				if got := ds.Attr(a).Kind; got != k {
					t.Errorf("attribute %q is %v, want %v", ds.Attr(a).Name, got, k)
				}
			}
		})
	}
}

// TestReadCSVAllocationsPerRow gates the loader's allocations: one per
// data row (the reader's record string) plus amortised column growth
// and one copy per distinct label — no per-row buffer of fields.
func TestReadCSVAllocationsPerRow(t *testing.T) {
	const rows, attrs = 20000, 20
	rng := rand.New(rand.NewSource(11))
	var sb strings.Builder
	for a := 0; a < attrs; a++ {
		if a > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "A%d", a)
	}
	sb.WriteByte('\n')
	for r := 0; r < rows; r++ {
		for a := 0; a < attrs; a++ {
			if a > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "v%d", rng.Intn(3+a))
		}
		sb.WriteByte('\n')
	}
	input := sb.String()
	allocs := testing.AllocsPerRun(3, func() {
		ds, err := ReadCSV(strings.NewReader(input), CSVOptions{})
		if err != nil || ds.NumRows() != rows || !ds.AllCategorical() {
			t.Fatalf("load: %v", err)
		}
	})
	perRow := allocs / rows
	t.Logf("%.0f allocations for %d rows × %d attributes: %.3f per row", allocs, rows, attrs, perRow)
	if perRow > 1.1 {
		t.Errorf("ReadCSV makes %.3f allocations per data row, want at most 1.1", perRow)
	}
}

// TestStrictNumbers: a declared-continuous field with text after its
// number fails the load and AppendRow instead of loading as the number.
func TestStrictNumbers(t *testing.T) {
	for _, bad := range []string{"1.5abc", "1.5 2", "3x", "1.2p4", "infx"} {
		in := fmt.Sprintf("a,class\n1,yes\n%q,no\n", bad)
		if _, err := ReadCSV(strings.NewReader(in), CSVOptions{Kinds: map[string]Kind{"a": Continuous}}); err == nil ||
			!strings.Contains(err.Error(), "cannot parse") {
			t.Errorf("ReadCSV accepted %q in a continuous column (err %v)", bad, err)
		}
		ds, err := ReadCSV(strings.NewReader("a,class\n1,yes\n"), CSVOptions{Kinds: map[string]Kind{"a": Continuous}})
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.AppendRow([]string{bad, "no"}); err == nil || !strings.Contains(err.Error(), "cannot parse") {
			t.Errorf("AppendRow accepted %q in a continuous column (err %v)", bad, err)
		}
		if ds.NumRows() != 1 || ds.Column(0).Len() != 1 || ds.ClassDict().Len() != 1 {
			t.Errorf("rejected AppendRow(%q) changed the dataset", bad)
		}
	}
	for in, want := range map[string]float64{" 2.5 ": 2.5, "1e3": 1000, "-0.5": -0.5, "0x1p3": 8} {
		if got, err := ParseValue(in); err != nil || got != want {
			t.Errorf("ParseValue(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"?", "", " ? ", "  "} {
		if got, err := ParseValue(in); err != nil || !math.IsNaN(got) {
			t.Errorf("ParseValue(%q) = %v, %v; want NaN", in, got, err)
		}
	}
}
