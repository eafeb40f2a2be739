package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"opmap/internal/dataset"
	"opmap/internal/workload"
)

// Read operations of the stream. Each maps to one opmapd endpoint form.
const (
	opCompare   = "compare"    // GET /api/compare?attr&v1&v2: pairwise
	opOVR       = "ovr"        // GET /api/compare?attr&value: one-vs-rest
	opAllValues = "all_values" // GET /api/compare?all_values=1: batched one-vs-rest
	opSweep     = "sweep"      // GET /api/sweep
	opDrill     = "drill"      // POST /api/drilldown
	opIngest    = "ingest"     // POST /api/ingest
)

// readOps lists the read operations in report order.
var readOps = []string{opCompare, opOVR, opAllValues, opSweep, opDrill}

// share is one operation's weight in a read mix.
type share struct {
	op     string
	weight float64
}

// spec is one workload: the dataset shape, how opmapd serves it and
// the traffic the benchmark sends.
type spec struct {
	name string
	why  string
	// rows × (noise + 6) is the call log's shape: the five planted
	// attributes, noise attributes and the class.
	rows, noise int
	// lazy serves with -lazy and a cube cache of cacheShare × the
	// schema's total pair-cube bytes.
	lazy       bool
	cacheShare float64
	// snapshot serves with -snapshot-dir: an eager boot writes the
	// store back, and a restart loads it instead of rebuilding.
	snapshot bool
	// readers is the number of closed-loop read clients (analysts that
	// wait for each reply).
	readers int
	mix     []share
	// skewed draws keys as Zipf ranks over a fixed universe, so a share
	// of them repeats; otherwise every request is a fresh uniform draw
	// and repeats are chance collisions.
	skewed bool
	// subset is the chance a compare carries an attrs= restriction of
	// 8–16 attributes.
	subset float64
	// drillDepth 1 expands only the root comparison, which reads pair
	// cubes; depth 2 conditions on one more attribute and needs 3-D
	// cubes, which even an eager engine counts on demand with a scan.
	drillDepth int
	// ingestRate > 0 sends batches open-loop at this many batches per
	// second beside the reads during the window; otherwise bulkBatches
	// go closed-loop after the read window.
	ingestRate float64
}

const (
	batchRows   = 50  // rows in every ingest batch
	bulkBatches = 400 // batches of a bulk ingest after the window
	// keyUniverse and zipfS shape skewed key draws: Zipf ranks over a
	// universe far larger than the 256-entry result cache.
	keyUniverse = 1 << 20
	zipfS       = 1.01
)

// attrs is the call log's attribute count, class included.
func (s spec) attrs() int { return s.noise + 6 }

var specs = []spec{
	{
		name:       "eager-analyst",
		why:        "the paper's deployed shape: precomputed cubes, analysts repeating overlapping comparisons; no row scans after set-up",
		rows:       200_000,
		noise:      40,
		snapshot:   true,
		readers:    2,
		mix:        []share{{opCompare, 0.70}, {opOVR, 0.10}, {opAllValues, 0.07}, {opSweep, 0.03}, {opDrill, 0.10}},
		skewed:     true,
		subset:     0.5,
		drillDepth: 1,
	},
	{
		name:       "lazy-wide",
		why:        "cube-cache pressure: a wide schema whose pair cubes are four times the lazy cache, keys uniform, so compares scan rows",
		rows:       30_000,
		noise:      140,
		lazy:       true,
		cacheShare: 0.25,
		readers:    2,
		mix:        []share{{opCompare, 0.80}, {opOVR, 0.05}, {opAllValues, 0.07}, {opSweep, 0.03}, {opDrill, 0.05}},
		subset:     0.9,
		drillDepth: 2,
	},
	{
		name:       "ingest-recover",
		why:        "writes beside reads: fsynced WAL ingest invalidating cached results, then kill -9 and snapshot load plus WAL replay",
		rows:       60_000,
		noise:      14,
		snapshot:   true,
		readers:    1,
		mix:        []share{{opCompare, 0.60}, {opOVR, 0.25}, {opAllValues, 0.07}, {opSweep, 0.03}, {opDrill, 0.05}},
		skewed:     true,
		subset:     0.5,
		drillDepth: 1,
		ingestRate: 100,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// schema is what the stream generator needs to know about a dataset:
// the non-class attributes with their value labels.
type schema struct {
	attrs   []string
	values  [][]string
	classes []string // class values comparisons target
}

func schemaOf(ds *dataset.Dataset) schema {
	var sc schema
	for i := 0; i < ds.NumAttrs(); i++ {
		if i == ds.ClassIndex() {
			continue
		}
		sc.attrs = append(sc.attrs, ds.Attr(i).Name)
		sc.values = append(sc.values, ds.Column(i).Dict.Labels())
	}
	sc.classes = []string{workload.ClassDropped, workload.ClassSetupFailed}
	return sc
}

// callLog generates the workload's call log: the base dataset served
// from CSV, or (ingest=true) the rows ingested later, drawn from the
// same model under another seed.
func (s spec) callLog(seed int64, records int, ingest bool) (*dataset.Dataset, workload.GroundTruth, error) {
	if ingest {
		seed = seed*7919 + 104729
	}
	return workload.CallLog(workload.CallLogConfig{
		Seed:       seed,
		Records:    records,
		NumPhones:  8,
		NoiseAttrs: s.noise,
	})
}

// request is one HTTP request of a stream.
type request struct {
	op   string
	key  string // identity of the query; equal keys ask for equal answers
	path string // path and query string
	body []byte // POST body (drilldown, ingest)
}

func (r request) method() string {
	if r.body != nil {
		return "POST"
	}
	return "GET"
}

// stream produces a workload's read requests in a fixed order for a
// seed: the same seed gives the same sequence, request by request.
type stream struct {
	sp    spec
	sc    schema
	seed  int64
	rng   *rand.Rand
	zipf  *rand.Zipf
	keys  map[uint64]request // universe keys drawn so far, by rank
	drawn int
}

func newStream(sp spec, sc schema, seed int64) *stream {
	st := &stream{sp: sp, sc: sc, seed: seed, rng: rand.New(rand.NewSource(seed))}
	if sp.skewed {
		st.zipf = rand.NewZipf(st.rng, zipfS, 1, keyUniverse-1)
		st.keys = map[uint64]request{}
	}
	return st
}

// planted is the universe's hottest key (rank 0): the paper's case
// study, the good and the bad phone compared on dropped calls.
func (st *stream) planted() string {
	if st.zipf == nil {
		return ""
	}
	return st.key(0).key
}

// key returns the universe key of a Zipf rank. Each rank's query is
// drawn from its own seeded generator, so a rank names the same query
// however many others were drawn before it.
func (st *stream) key(rank uint64) request {
	if r, ok := st.keys[rank]; ok {
		return r
	}
	var r request
	if rank == 0 {
		r = st.compareReq(workload.ClassDropped, "Phone-Model", "ph1", "ph2", nil)
	} else {
		rng := rand.New(rand.NewSource(int64(splitmix(uint64(st.seed)<<32 ^ rank))))
		r = st.keyFor(rng, opOfRank(st.sp.mix, rank))
	}
	st.keys[rank] = r
	return r
}

// next returns the stream's next request.
func (st *stream) next() request {
	st.drawn++
	if st.zipf != nil {
		return st.key(st.zipf.Uint64())
	}
	return st.randomKey(st.rng)
}

// opOfRank deals the mix's operations to universe ranks in a fixed
// pattern of 100 (weights are multiples of 0.01), so every operation
// gets an equal share of hot and cold ranks whatever the seed: which
// operation happens to own the hottest keys would otherwise swing the
// per-operation cache-hit share from one seed to the next.
func opOfRank(mix []share, rank uint64) string {
	slot := int(rank % 100)
	for _, s := range mix {
		n := int(s.weight*100 + 0.5)
		if slot < n {
			return s.op
		}
		slot -= n
	}
	return mix[len(mix)-1].op
}

// randomKey draws one query: an operation from the mix, then its
// attribute, values, class and optional attribute restriction.
func (st *stream) randomKey(rng *rand.Rand) request {
	return st.keyFor(rng, pick(rng, st.sp.mix))
}

func (st *stream) keyFor(rng *rand.Rand, op string) request {
	a := rng.Intn(len(st.sc.attrs))
	attr := st.sc.attrs[a]
	vals := st.sc.values[a]
	class := st.sc.classes[0]
	if rng.Float64() < 0.2 {
		class = st.sc.classes[1]
	}
	var subset []string
	if rng.Float64() < st.sp.subset {
		subset = st.subsetOf(rng, a, 8+rng.Intn(9))
	}
	v1 := rng.Intn(len(vals))
	v2 := (v1 + 1 + rng.Intn(len(vals)-1)) % len(vals)
	switch op {
	case opCompare:
		return st.compareReq(class, attr, vals[v1], vals[v2], subset)
	case opOVR:
		q := url.Values{"attr": {attr}, "value": {vals[v1]}, "class": {class}}
		setAttrs(q, subset)
		return getReq(op, "/api/compare", q)
	case opAllValues:
		q := url.Values{"attr": {attr}, "all_values": {"1"}, "class": {class}}
		return getReq(op, "/api/compare", q)
	case opSweep:
		q := url.Values{"attr": {attr}, "class": {class}, "max_pairs": {"4"}}
		return getReq(op, "/api/sweep", q)
	default:
		body := map[string]any{
			"attr": attr, "v1": vals[v1], "v2": vals[v2], "class": class,
			"max_depth": st.sp.drillDepth, "beam": 4, "max_nodes": 32,
		}
		if st.sp.drillDepth > 1 {
			body["attrs"] = st.subsetOf(rng, a, 8)
		}
		b, _ := json.Marshal(body) // a map of strings, ints and a string slice always encodes
		return request{op: opDrill, key: opDrill + string(b), path: "/api/drilldown", body: b}
	}
}

func (st *stream) compareReq(class, attr, v1, v2 string, subset []string) request {
	q := url.Values{"attr": {attr}, "v1": {v1}, "v2": {v2}, "class": {class}}
	setAttrs(q, subset)
	return getReq(opCompare, "/api/compare", q)
}

// subsetOf draws n distinct attributes other than attribute a, sorted.
func (st *stream) subsetOf(rng *rand.Rand, a, n int) []string {
	perm := rng.Perm(len(st.sc.attrs))
	out := make([]string, 0, n)
	for _, i := range perm {
		if i != a && len(out) < n {
			out = append(out, st.sc.attrs[i])
		}
	}
	sort.Strings(out)
	return out
}

func setAttrs(q url.Values, subset []string) {
	if len(subset) > 0 {
		q.Set("attrs", strings.Join(subset, ","))
	}
}

func getReq(op, path string, q url.Values) request {
	p := path + "?" + q.Encode()
	return request{op: op, key: op + p, path: p}
}

func pick(rng *rand.Rand, mix []share) string {
	var total float64
	for _, s := range mix {
		total += s.weight
	}
	u := rng.Float64() * total
	for _, s := range mix {
		if u < s.weight {
			return s.op
		}
		u -= s.weight
	}
	return mix[len(mix)-1].op
}

// batch is one ingest batch: its rows and the encoded POST body.
type batch struct {
	rows [][]string
	body []byte
}

// ingestBatches turns ingest rows into n batches of batchRows rows.
func ingestBatches(ds *dataset.Dataset, n int) []batch {
	out := make([]batch, n)
	for i := range out {
		rows := make([][]string, batchRows)
		for j := range rows {
			rows[j] = ds.Row(i*batchRows + j)
		}
		var buf bytes.Buffer
		// [][]string always encodes.
		_ = json.NewEncoder(&buf).Encode(map[string][][]string{"rows": rows})
		out[i] = batch{rows: rows, body: buf.Bytes()}
	}
	return out
}

func ingestReq(b batch) request {
	return request{op: opIngest, key: opIngest, path: "/api/ingest", body: b.body}
}

// pairCubeBytes is the memory all pair cubes of the schema would take
// at 8 bytes per cell, the figure opmapd's cube cache budget counts in.
func pairCubeBytes(ds *dataset.Dataset) int64 {
	var total int64
	nc := int64(ds.NumClasses())
	var cards []int64
	for i := 0; i < ds.NumAttrs(); i++ {
		if i != ds.ClassIndex() {
			cards = append(cards, int64(ds.Cardinality(i)))
		}
	}
	for i := range cards {
		for j := i + 1; j < len(cards); j++ {
			total += 8 * nc * cards[i] * cards[j]
		}
	}
	return total
}

// opMix renders a mix for the report.
func opMix(mix []share) string {
	parts := make([]string, len(mix))
	for i, s := range mix {
		parts[i] = s.op + "=" + strconv.FormatFloat(s.weight, 'f', 2, 64)
	}
	return strings.Join(parts, " ")
}

// describe renders a spec's shape for the report.
func (s spec) describe() string {
	mode := "eager"
	if s.lazy {
		mode = "lazy"
	}
	return fmt.Sprintf("%s %d×%d, %d reader(s)", mode, s.rows, s.attrs(), s.readers)
}
