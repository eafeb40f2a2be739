package dataset

import "fmt"

// This file implements the dictionary-union layer of shard merging.
// Two shards loaded from different slices of the same logical CSV see
// the same labels in different first-appearance orders, so their codes
// disagree; merging their cubes requires a shared union dictionary and
// a per-shard code remap through it. Union is order-preserving: labels
// already known keep their codes, new labels append in src code order.
// Merging shards in row order therefore reproduces exactly the
// dictionary a single pass over the concatenated rows would build —
// the property the sharded-build oracle tests rely on.

// Union registers every label of src into d, in src code order, and
// returns the code translation: remap[srcCode] = d's code for the same
// label. Labels d already knows keep their existing codes; unseen
// labels append. The remap always has length src.Len(), and a nil src
// yields a nil remap.
func (d *Dictionary) Union(src *Dictionary) []int32 {
	if src == nil {
		return nil
	}
	remap := make([]int32, len(src.labels))
	for i, l := range src.labels {
		remap[i] = d.Code(l)
	}
	return remap
}

// RemapIsIdentity reports whether remap maps every code to itself, the
// case where the two dictionaries already agree on a shared prefix and
// counts can be merged without re-indexing.
func RemapIsIdentity(remap []int32) bool {
	for i, c := range remap {
		if int32(i) != c {
			return false
		}
	}
	return true
}

// Remap carries the per-attribute code translations produced by
// UnionDicts, indexed by dataset attribute index. Continuous attributes
// have no dictionary and carry a nil translation.
type Remap struct {
	attrs [][]int32
}

// Attr returns the code translation for attribute i (nil for
// continuous attributes): translation[srcCode] = dstCode.
func (rm *Remap) Attr(i int) []int32 {
	if rm == nil || i < 0 || i >= len(rm.attrs) {
		return nil
	}
	return rm.attrs[i]
}

// NumAttrs returns the number of attributes the remap covers.
func (rm *Remap) NumAttrs() int {
	if rm == nil {
		return 0
	}
	return len(rm.attrs)
}

// CompatibleSchema checks that src's schema matches ds attribute by
// attribute — same count, same names, same kinds, same class position —
// naming the first offending attribute. This is the precondition for
// any shard merge: cubes from structurally different datasets cannot be
// combined meaningfully.
func (ds *Dataset) CompatibleSchema(src *Dataset) error {
	if src == nil {
		return fmt.Errorf("dataset: merge source is nil")
	}
	if got, want := len(src.schema.Attrs), len(ds.schema.Attrs); got != want {
		return fmt.Errorf("dataset: attribute count mismatch: %d vs %d", got, want)
	}
	for i, a := range ds.schema.Attrs {
		b := src.schema.Attrs[i]
		if a.Name != b.Name {
			return fmt.Errorf("dataset: attribute %d name mismatch: %q vs %q", i, a.Name, b.Name)
		}
		if a.Kind != b.Kind {
			return fmt.Errorf("dataset: attribute %q kind mismatch: %s vs %s", a.Name, a.Kind, b.Kind)
		}
	}
	if ds.schema.ClassIndex != src.schema.ClassIndex {
		return fmt.Errorf("dataset: class attribute position mismatch: %d vs %d", src.schema.ClassIndex, ds.schema.ClassIndex)
	}
	return nil
}

// UnionDicts validates schema compatibility and unions every
// categorical dictionary of src into ds, returning the per-attribute
// code remap. ds's dictionaries grow in place (new labels append in
// src order); src is never modified. The operation is idempotent:
// calling it again with the same src returns the same remap without
// growing anything, so callers may remap cube counts and row codes in
// separate passes.
func (ds *Dataset) UnionDicts(src *Dataset) (*Remap, error) {
	if err := ds.CompatibleSchema(src); err != nil {
		return nil, err
	}
	rm := &Remap{attrs: make([][]int32, len(ds.cols))}
	for i := range ds.cols {
		dst := &ds.cols[i]
		if dst.Kind != Categorical {
			continue
		}
		if dst.Dict == nil || src.cols[i].Dict == nil {
			return nil, fmt.Errorf("dataset: attribute %q has no dictionary", ds.schema.Attrs[i].Name)
		}
		rm.attrs[i] = dst.Dict.Union(src.cols[i].Dict)
	}
	return rm, nil
}

// AppendRemapped appends every row of src to ds, translating
// categorical codes through rm (Missing stays Missing) and copying
// continuous values verbatim. rm must come from a ds.UnionDicts(src)
// call, so every translated code is already registered in ds's
// dictionaries.
func (ds *Dataset) AppendRemapped(src *Dataset, rm *Remap) error {
	if err := ds.CompatibleSchema(src); err != nil {
		return err
	}
	for i := range ds.cols {
		if ds.cols[i].Kind != Categorical {
			continue
		}
		tr := rm.Attr(i)
		if len(tr) < src.cols[i].Dict.Len() {
			return fmt.Errorf("dataset: attribute %q: remap covers %d codes, source dictionary has %d", ds.schema.Attrs[i].Name, len(tr), src.cols[i].Dict.Len())
		}
		for _, tc := range tr {
			if tc < 0 || int(tc) >= ds.cols[i].Dict.Len() {
				return fmt.Errorf("dataset: attribute %q: remapped code %d beyond dictionary size %d", ds.schema.Attrs[i].Name, tc, ds.cols[i].Dict.Len())
			}
		}
	}
	for i := range ds.cols {
		dst := &ds.cols[i]
		srcCol := &src.cols[i]
		if dst.Kind != Categorical {
			dst.Values = append(dst.Values, srcCol.Values...)
			continue
		}
		tr := rm.Attr(i)
		for r := 0; r < srcCol.Len(); r++ {
			if code := srcCol.Code(r); code < 0 {
				dst.appendCode(Missing)
			} else {
				dst.appendCode(tr[code])
			}
		}
	}
	ds.rows += src.rows
	return nil
}
