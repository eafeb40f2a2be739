package dataset

import (
	"fmt"
)

// This file gives a built Dataset an append path for streaming
// ingestion. Appends are not safe for use concurrent with reads; the
// Session layer serializes them behind its ingest lock.

// AppendRow appends one row of textual values, one per attribute, with
// exactly Builder.AddRow's semantics: "?" is a missing categorical
// value or continuous NaN, unseen categorical labels register new
// dictionary codes, continuous fields parse with ParseValue. The row is
// fully validated before anything mutates, so a malformed row leaves
// the dataset untouched.
func (ds *Dataset) AppendRow(values []string) error {
	if len(values) != len(ds.cols) {
		return fmt.Errorf("dataset: row has %d values, schema has %d attributes", len(values), len(ds.cols))
	}
	// Validate pass: parse every continuous field first.
	floats := make([]float64, len(values))
	for i := range ds.cols {
		if ds.cols[i].Kind != Continuous {
			continue
		}
		f, err := ParseValue(values[i])
		if err != nil {
			return fmt.Errorf("dataset: attribute %q: cannot parse %q as number: %v", ds.schema.Attrs[i].Name, values[i], err)
		}
		floats[i] = f
	}
	ds.appendParsed(values, floats)
	return nil
}

// AppendParsedRow is AppendRow for a caller that already parsed the
// row's continuous fields the way AppendRow does: floats[i] is the
// value of continuous attribute i (NaN when missing), and floats may
// be nil when the schema has no continuous attribute. Categorical
// fields come from values as in AppendRow. Nothing is re-parsed, so a
// session that validated a batch appends it without parsing twice.
func (ds *Dataset) AppendParsedRow(values []string, floats []float64) error {
	if len(values) != len(ds.cols) {
		return fmt.Errorf("dataset: row has %d values, schema has %d attributes", len(values), len(ds.cols))
	}
	if floats != nil && len(floats) != len(ds.cols) {
		return fmt.Errorf("dataset: %d parsed values for %d attributes", len(floats), len(ds.cols))
	}
	if floats == nil {
		for i := range ds.cols {
			if ds.cols[i].Kind == Continuous {
				return fmt.Errorf("dataset: attribute %q is continuous but no parsed values were given", ds.schema.Attrs[i].Name)
			}
		}
	}
	ds.appendParsed(values, floats)
	return nil
}

// appendParsed appends a validated row: categorical codes from values,
// continuous values from floats. Nothing here can fail.
func (ds *Dataset) appendParsed(values []string, floats []float64) {
	for i := range ds.cols {
		c := &ds.cols[i]
		if c.Kind == Categorical {
			if values[i] == MissingLabel {
				c.appendCode(Missing)
			} else {
				c.appendCode(c.Dict.Code(values[i]))
			}
			continue
		}
		c.Values = append(c.Values, floats[i])
	}
	ds.rows++
}

// AppendCodedRow appends a row of pre-encoded values: codes[i] is used
// for categorical attributes, values[i] for continuous ones (values may
// be nil when every attribute is categorical). Codes must already be
// registered — this path never grows a dictionary, so the caller
// controls exactly when domains change.
func (ds *Dataset) AppendCodedRow(codes []int32, values []float64) error {
	if len(codes) != len(ds.cols) || (values != nil && len(values) != len(ds.cols)) {
		return fmt.Errorf("dataset: coded row width mismatch")
	}
	for i := range ds.cols {
		c := &ds.cols[i]
		if c.Kind == Categorical {
			code := codes[i]
			if code >= 0 && int(code) >= c.Dict.Len() {
				return fmt.Errorf("dataset: attribute %q: code %d beyond dictionary size %d", ds.schema.Attrs[i].Name, code, c.Dict.Len())
			}
			continue
		}
		if values == nil {
			return fmt.Errorf("dataset: attribute %q is continuous but no values were given", ds.schema.Attrs[i].Name)
		}
	}
	for i := range ds.cols {
		c := &ds.cols[i]
		if c.Kind == Categorical {
			c.appendCode(codes[i])
		} else {
			c.Values = append(c.Values, values[i])
		}
	}
	ds.rows++
	return nil
}
