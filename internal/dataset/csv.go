package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"opmap/internal/atomicfile"
)

// CSVOptions controls CSV parsing into a Dataset.
type CSVOptions struct {
	// ClassAttr names the class attribute. If empty, the last column is
	// the class.
	ClassAttr string
	// Kinds optionally fixes the kind of each named attribute. Attributes
	// not listed are sniffed: a column whose non-missing values all parse
	// as numbers and which has more than MaxSniffCardinality distinct
	// values is continuous, otherwise categorical.
	Kinds map[string]Kind
	// MaxSniffCardinality is the distinct-value threshold for treating a
	// numeric column as categorical anyway (e.g. small integer codes).
	// Zero means 32.
	MaxSniffCardinality int
	// Comma is the field separator; zero means ','.
	Comma rune
	// MaxRows caps the number of data rows (excluding the header);
	// exceeding it fails the load instead of growing memory without
	// bound. Zero means unlimited (trusted local files).
	MaxRows int
	// MaxColumns caps the number of header columns. Zero means
	// unlimited.
	MaxColumns int
	// MaxRecordBytes caps the byte size of any single record (sum of
	// field lengths, header included). Zero means unlimited.
	MaxRecordBytes int
}

// ReadCSV parses a header-bearing CSV stream into a Dataset in one
// pass: each field is trimmed and encoded into its column as the record
// is read, so no row is ever held as strings. Categorical columns (the
// class and declared ones) intern their labels in the column's
// dictionary; declared-continuous columns parse each field with
// ParseValue. An undeclared column is sniffed as it streams, with the
// rule CSVOptions.Kinds states (see sniffState): it is encoded as
// categorical, turns continuous once it has more than
// MaxSniffCardinality distinct labels that are all numbers, and turns
// back to categorical for good at the first label that is not a number.
func ReadCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if opts.MaxColumns > 0 && len(header) > opts.MaxColumns {
		return nil, fmt.Errorf("dataset: CSV header has %d columns, limit is %d", len(header), opts.MaxColumns)
	}
	if err := checkRecordBytes(header, 1, opts.MaxRecordBytes); err != nil {
		return nil, err
	}
	names := make([]string, len(header))
	for i, h := range header {
		names[i] = strings.TrimSpace(h)
	}

	classIdx := len(names) - 1
	if opts.ClassAttr != "" {
		if classIdx = slices.Index(names, opts.ClassAttr); classIdx < 0 {
			return nil, fmt.Errorf("dataset: class attribute %q not found in CSV header", opts.ClassAttr)
		}
	}
	maxCard := opts.MaxSniffCardinality
	if maxCard == 0 {
		maxCard = 32
	}

	// Undeclared columns start out categorical; validation needs only
	// the names and the class.
	schema := Schema{Attrs: make([]Attribute, len(names)), ClassIndex: classIdx}
	sniff := make([]sniffState, len(names))
	for i, n := range names {
		kind, declared := opts.Kinds[n]
		if i == classIdx {
			kind, declared = Categorical, true
		}
		schema.Attrs[i] = Attribute{Name: n, Kind: kind}
		sniff[i].numeric = !declared
	}
	b, err := NewBuilder(schema)
	if err != nil {
		return nil, err
	}
	cols := b.cols
	for i := range cols {
		sniff[i].promote(&cols[i], maxCard)
	}

	rows := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row %d: %w", rows+2, err)
		}
		if opts.MaxRows > 0 && rows >= opts.MaxRows {
			return nil, fmt.Errorf("dataset: CSV exceeds %d data rows", opts.MaxRows)
		}
		if err := checkRecordBytes(rec, rows+2, opts.MaxRecordBytes); err != nil {
			return nil, err
		}
		if len(rec) != len(names) {
			return nil, fmt.Errorf("dataset: CSV row %d has %d fields, header has %d", rows+2, len(rec), len(names))
		}
		for i, f := range rec {
			v := strings.TrimSpace(f)
			c, s := &cols[i], &sniff[i]
			if c.Kind == Continuous {
				x, err := ParseValue(v)
				if err == nil {
					c.Values = append(c.Values, x)
					if s.numeric {
						s.note(rows, v, x)
					}
					continue
				}
				if !s.numeric {
					return nil, fmt.Errorf("dataset: attribute %q: cannot parse %q as number: %v", names[i], v, err)
				}
				s.demote(c)
			}
			if v == MissingLabel {
				c.appendCode(Missing)
				continue
			}
			code, ok := c.Dict.codes[v]
			if ok {
				c.appendCode(code)
				continue
			}
			// The field aliases the reader's record buffer; the
			// dictionary must not pin it.
			c.appendCode(c.Dict.Code(strings.Clone(v)))
			if s.numeric {
				if x, err := ParseValue(v); err != nil {
					s.numeric, s.nums = false, nil
				} else {
					s.nums = append(s.nums, x)
					s.promote(c, maxCard)
				}
			}
		}
		rows++
	}
	for i := range cols {
		b.schema.Attrs[i].Kind = cols[i].Kind
	}
	return &Dataset{schema: b.schema, cols: cols, rows: rows}, nil
}

// sniffState follows one undeclared column through ReadCSV. numeric
// says every label so far is a number. While the column is categorical
// and numeric, nums holds each label's value by code; promote turns it
// continuous once it has more than maxCard such labels ("" and "?"
// aside), which is when the sniffing rule would call it continuous if
// the file ended there. A continuous column keeps its values and, in
// odd, only the labels its values do not spell back (padding, "1.50",
// "", "?"...); demote rebuilds the categorical column from those two
// when a label that is not a number arrives. The dictionary and codes
// are then exactly what encoding the labels one by one would have
// produced, and a continuous column costs its values plus its odd
// labels instead of one copy of each distinct label.
type sniffState struct {
	numeric bool
	nums    []float64
	odd     []oddLabel
	oddText []byte // the odd labels, concatenated
	buf     []byte // scratch for spelling values
}

// oddLabel is a row of a continuous column whose label its value does
// not spell back; end is the label's end offset in oddText.
type oddLabel struct{ row, end int }

// spell returns value x as the label that reads back as x.
func (s *sniffState) spell(x float64) []byte {
	s.buf = strconv.AppendFloat(s.buf[:0], x, 'g', -1, 64)
	return s.buf
}

// note records row's label v, whose value is x, in a continuous column
// that is still numeric.
func (s *sniffState) note(row int, v string, x float64) {
	if string(s.spell(x)) != v {
		s.oddText = append(s.oddText, v...)
		s.odd = append(s.odd, oddLabel{row, len(s.oddText)})
	}
}

// promote turns categorical column c continuous if it is numeric with
// more than maxCard distinct labels.
func (s *sniffState) promote(c *Column, maxCard int) {
	if !s.numeric || c.Kind != Categorical || sniffedCardinality(c.Dict) <= maxCard {
		return
	}
	values := make([]float64, c.Len())
	for r := range values {
		code := c.Code(r)
		label, x := MissingLabel, math.NaN()
		if code != Missing {
			label, x = c.Dict.Label(code), s.nums[code]
		}
		values[r] = x
		s.note(r, label, x)
	}
	*c = Column{Kind: Continuous, Values: values}
	s.nums = nil
}

// demote turns continuous column c back into the categorical column
// its labels make, for good.
func (s *sniffState) demote(c *Column) {
	dict := NewDictionary()
	out := Column{Kind: Categorical, Dict: dict, narrow: make([]uint8, 0, len(c.Values))}
	k, start := 0, 0
	for r, x := range c.Values {
		var label []byte
		if k < len(s.odd) && s.odd[k].row == r {
			label, start = s.oddText[start:s.odd[k].end], s.odd[k].end
			k++
		} else {
			label = s.spell(x)
		}
		code, ok := dict.codes[string(label)]
		switch {
		case ok:
		case string(label) == MissingLabel:
			code = Missing
		default:
			code = dict.Code(string(label))
		}
		out.appendCode(code)
	}
	*c = out
	s.numeric, s.odd, s.oddText = false, nil, nil
}

// sniffedCardinality counts the labels the sniffing rule weighs: every
// distinct label but the empty one (MissingLabel never enters a
// dictionary).
func sniffedCardinality(d *Dictionary) int {
	n := d.Len()
	if _, ok := d.codes[""]; ok {
		n--
	}
	return n
}

// checkRecordBytes enforces MaxRecordBytes on one record; line is the
// 1-based CSV line for the error message.
func checkRecordBytes(rec []string, line, limit int) error {
	if limit <= 0 {
		return nil
	}
	n := 0
	for _, f := range rec {
		n += len(f)
		if n > limit {
			return fmt.Errorf("dataset: CSV record at line %d exceeds %d bytes", line, limit)
		}
	}
	return nil
}

// ReadCSVFile is ReadCSV over a file path.
func ReadCSVFile(path string, opts CSVOptions) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, opts)
}

// WriteCSV writes the dataset with a header row. Missing values are
// written as MissingLabel.
func WriteCSV(w io.Writer, ds *Dataset) error {
	cw := csv.NewWriter(w)
	header := make([]string, ds.NumAttrs())
	for i := range header {
		header[i] = ds.Attr(i).Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for r := 0; r < ds.NumRows(); r++ {
		if err := cw.Write(ds.Row(r)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile is WriteCSV to a file path, written atomically so a
// crash or full disk mid-export cannot leave a truncated file at the
// destination.
func WriteCSVFile(path string, ds *Dataset) error {
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return WriteCSV(w, ds)
	})
}
