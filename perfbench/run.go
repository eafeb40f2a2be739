package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"opmap/internal/dataset"
	"opmap/internal/engine"
	"opmap/internal/rulecube"
	"opmap/internal/wal"
)

// classAttr is the call log's class attribute.
const classAttr = "Disposition"

// Run-shape constants shared by every workload.
const (
	setups     = 5               // boots per run; setup_s is their median
	restarts   = 3               // crash restarts per run; recover_s is their median
	warmup     = 2 * time.Second // read traffic before the window, so caches fill
	maxChecks  = 5               // sampled answers checked per operation
	sampleRate = 16              // one answer in sampleRate is kept for checking
)

// env locates the program under test and the run's scratch space.
type env struct {
	opmapd string // the opmapd binary
	work   string // per-run directory, removed afterwards
}

// inputs are a run's generated data: the base CSV and the ingest
// batches, both from the seed.
type inputs struct {
	csv       string
	ds        *dataset.Dataset
	sc        schema
	batches   []batch
	cacheByte int64 // -cube-cache-bytes for lazy workloads
	pairBytes int64
}

func makeInputs(sp spec, seed int64, seconds int, dir string) (*inputs, error) {
	ds, _, err := sp.callLog(seed, sp.rows, false)
	if err != nil {
		return nil, err
	}
	in := &inputs{csv: filepath.Join(dir, "calls.csv"), ds: ds, sc: schemaOf(ds), pairBytes: pairCubeBytes(ds)}
	if err := dataset.WriteCSVFile(in.csv, ds); err != nil {
		return nil, err
	}
	n := bulkBatches
	if sp.ingestRate > 0 {
		n = int(math.Ceil(sp.ingestRate * float64(seconds)))
	}
	ing, _, err := sp.callLog(seed, n*batchRows, true)
	if err != nil {
		return nil, err
	}
	in.batches = ingestBatches(ing, n)
	if sp.lazy {
		in.cacheByte = int64(float64(in.pairBytes) * sp.cacheShare)
	}
	return in, nil
}

// daemonArgs returns opmapd's flags for boot k of a run; every boot
// gets fresh WAL and snapshot directories except a restart (k < 0),
// which reuses the serving boot's.
func daemonArgs(sp spec, in *inputs, dir string, k int) []string {
	tag := strconv.Itoa(k)
	if k < 0 {
		tag = strconv.Itoa(setups - 1)
	}
	args := []string{
		"-data", datasetName + "=" + in.csv,
		"-class", classAttr,
		"-wal-dir", filepath.Join(dir, "wal-"+tag),
	}
	if sp.snapshot {
		args = append(args, "-snapshot-dir", filepath.Join(dir, "snap-"+tag))
	}
	if sp.lazy {
		args = append(args, "-lazy", "-cube-cache-bytes", strconv.FormatInt(in.cacheByte, 10))
	}
	return args
}

// httpRun is everything one untraced run measured.
type httpRun struct {
	setup       []time.Duration
	recover     []time.Duration
	reads       []sample // warm-up and window
	ingest      []sample
	winStart    time.Time
	window      time.Duration
	ingestStart time.Time
	ingestSpan  time.Duration // first due/send to last ack
	peakRSS     []float64     // MiB, VmHWM of each daemon when stopped
	m0, m1, m2  scrape        // boot, window start, window end
	m3, m4      scrape        // after ingest, after recovery
	rowsAfter   int
	steal       stealLog // host CPU steal from the window's start to the ingest's end
	problems    []string // wrong answers and broken invariants
	checked     int      // answers compared with the reference
	checkFailed int      // of those, the ones that differed or failed
	plantedSeen int
}

func (h *httpRun) fail(format string, args ...any) {
	h.problems = append(h.problems, fmt.Sprintf(format, args...))
}

// runHTTP boots opmapd, drives it and checks what it answered.
func runHTTP(ctx context.Context, sp spec, seed int64, seconds int, e env, in *inputs) (*httpRun, error) {
	h := &httpRun{}
	t0 := time.Now()
	phase := func(name string) { log.Printf("%s: %s done at %.1fs", sp.name, name, time.Since(t0).Seconds()) }
	defer phase("http run")
	client := newClient()
	defer client.CloseIdleConnections()
	logPath := filepath.Join(e.work, "opmapd.log")
	var d *daemon
	// stop kills the daemon, first recording the peak RSS of a set-up
	// boot (the serving one's covers the reads and ingest too).
	stop := func() {
		if d == nil {
			return
		}
		if len(h.peakRSS) < setups {
			if v, err := d.peakRSSMiB(); err == nil {
				h.peakRSS = append(h.peakRSS, v)
			}
		}
		d.kill()
		d = nil
	}
	defer stop()
	for k := 0; k < setups; k++ {
		stop()
		var took time.Duration
		var err error
		d, took, err = startDaemon(e.opmapd, daemonArgs(sp, in, e.work, k), e.work, logPath, client)
		if err != nil {
			return nil, err
		}
		h.setup = append(h.setup, took)
	}
	phase("setup")
	var err error
	if h.m0, err = d.scrape(client); err != nil {
		return nil, err
	}

	st := newStream(sp, in.sc, seed)
	planted := st.planted()
	check := func(r request, resp response) string {
		if r.key != planted {
			return ""
		}
		return plantedCheck(resp.body)
	}
	f := &feed{st: st}
	keep := func(i int) bool { return splitmix(uint64(seed)^uint64(i)*0x9e3779b97f4a7c15)%sampleRate == 0 }

	warmEnd := time.Now().Add(warmup)
	h.reads = closedLoop(ctx, client, d.base, f, sp.readers, warmEnd, "warm", keep, check)
	if h.m1, err = d.scrape(client); err != nil {
		return nil, err
	}
	stopWatch := watchSteal()
	winStart := time.Now()
	h.winStart, h.ingestStart = winStart, winStart
	end := winStart.Add(time.Duration(seconds) * time.Second)
	windowKeep := keep
	var ingested chan []sample
	if sp.ingestRate > 0 {
		// Answers given while rows stream in depend on which batches had
		// been applied, so only the read-only warm-up is sampled.
		windowKeep = func(int) bool { return false }
		ingested = make(chan []sample, 1)
		go func() {
			ingested <- openLoopIngest(ctx, client, d.base, in.batches, openLoop{start: winStart, rate: sp.ingestRate})
		}()
	}
	h.reads = append(h.reads, closedLoop(ctx, client, d.base, f, sp.readers, end, "window", windowKeep, check)...)
	if ingested != nil {
		h.ingest = <-ingested
		h.ingestSpan = time.Since(winStart)
	}
	h.window = time.Since(winStart)
	if h.m2, err = d.scrape(client); err != nil {
		return nil, err
	}
	if sp.ingestRate == 0 {
		h.ingestStart = time.Now()
		h.ingest = closedLoopIngest(ctx, client, d.base, in.batches)
		h.ingestSpan = time.Since(h.ingestStart)
	}
	h.steal = stopWatch()
	phase("reads and ingest")
	if h.m3, err = d.scrape(client); err != nil {
		return nil, err
	}

	// Crash and recover on the same directories, several times: every
	// restart loads the same boot snapshot (or CSV) and replays the same
	// WAL records.
	for r := 0; r < restarts; r++ {
		stop()
		var took time.Duration
		if d, took, err = startDaemon(e.opmapd, daemonArgs(sp, in, e.work, -1), e.work, logPath, client); err != nil {
			return nil, err
		}
		h.recover = append(h.recover, took)
	}
	if h.m4, err = d.scrape(client); err != nil {
		return nil, err
	}
	if h.rowsAfter, err = datasetRows(ctx, client, d.base); err != nil {
		return nil, err
	}

	phase("recovery")
	wrong := 0
	for _, s := range h.reads {
		var w wrongAnswer
		switch {
		case errors.As(s.resp.err, &w):
			if wrong++; wrong == 1 {
				h.fail("%s %s: %v", s.op, s.key, w)
			}
		case s.key == planted && s.resp.ok():
			h.plantedSeen++
		}
	}
	if wrong > 1 {
		h.fail("%d wrong answers in all", wrong)
	}
	if err := h.checkAnswers(ctx, client, d.base, in); err != nil {
		return nil, err
	}
	h.checkInvariants(sp)
	return h, nil
}

// acked counts the ingest batches opmapd acknowledged.
func (h *httpRun) acked() int {
	n := 0
	for _, s := range h.ingest {
		if s.resp.ok() {
			n++
		}
	}
	return n
}

// checkAnswers compares sampled answers with the reference session, then
// brings the reference up to the acknowledged batches and compares the
// recovered daemon's answers with it.
func (h *httpRun) checkAnswers(ctx context.Context, client *http.Client, base string, in *inputs) error {
	ref, err := newReference(in.csv)
	if err != nil {
		return err
	}
	perOp := map[string]int{}
	var replay []request
	for _, s := range h.reads {
		if s.resp.body == nil || !s.resp.ok() || perOp[s.op] >= maxChecks {
			continue
		}
		perOp[s.op]++
		r := requestOf(s)
		h.compareWithReference(ref, r, s.resp, "sampled")
		if perOp[s.op] == 1 {
			replay = append(replay, r)
		}
	}
	var acked []ackedBatch
	for _, s := range h.ingest {
		if !s.resp.ok() {
			continue
		}
		var ack struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal(s.resp.body, &ack); err != nil {
			h.fail("ingest ack %d: %v", s.idx, err)
			continue
		}
		acked = append(acked, ackedBatch{seq: ack.Seq, rows: in.batches[s.idx].rows})
	}
	if want := in.ds.NumRows() + batchRows*len(acked); h.rowsAfter != want {
		h.fail("recovered %d rows, want %d base + %d acknowledged", h.rowsAfter, in.ds.NumRows(), batchRows*len(acked))
	}
	// A fresh reference holds no cubes yet, so appending to it is cheap.
	if ref, err = newReference(in.csv); err != nil {
		return err
	}
	if err := ref.apply(acked); err != nil {
		return err
	}
	for _, r := range replay {
		h.compareWithReference(ref, r, do(ctx, client, base, r), "after recovery")
	}
	return nil
}

func (h *httpRun) compareWithReference(ref *reference, r request, got response, when string) {
	h.checked++
	why := ""
	if !got.ok() {
		why = got.String()
	} else if want := ref.answer(r); !want.ok() {
		why = "reference " + want.String()
	} else if d := sameAnswer(got.body, want.body); d != "" {
		why = "differs from the reference: " + d
	}
	if why != "" {
		h.checkFailed++
		h.fail("%s %s %s: %s", when, r.op, r.path, why)
	}
}

// requestOf rebuilds the request a read sample answered from its key.
func requestOf(s sample) request {
	r := request{op: s.op, key: s.key}
	if s.op == opDrill {
		r.path = "/api/drilldown"
		r.body = []byte(strings.TrimPrefix(s.key, opDrill))
	} else {
		r.path = strings.TrimPrefix(s.key, s.op)
	}
	return r
}

// checkInvariants asserts the properties each workload is built on, so
// a workload that stopped exercising its layer fails loudly.
func (h *httpRun) checkInvariants(sp spec) {
	if !sp.lazy && sp.ingestRate == 0 {
		if n := h.m2.counter(rulecube.CubeScansCounterName) - h.m1.counter(rulecube.CubeScansCounterName); n != 0 {
			h.fail("invariant: %d row scans in the eager read window, want 0", n)
		}
	}
	if sp.lazy {
		if n := h.m2.counter(engine.CubeCacheEvictionsCounterName) - h.m1.counter(engine.CubeCacheEvictionsCounterName); n <= 0 {
			h.fail("invariant: no cube-cache evictions in the lazy window; the working set fits the cache")
		}
	}
	if n, acked := h.m4.counter(wal.ReplayedRecordsCounterName), h.acked(); n != int64(acked) {
		h.fail("invariant: replayed %d WAL records after the crash, want the %d batches acknowledged since the boot snapshot", n, acked)
	}
}

func datasetRows(ctx context.Context, client *http.Client, base string) (int, error) {
	resp := do(ctx, client, base, request{path: "/api/datasets"})
	if !resp.ok() {
		return 0, fmt.Errorf("/api/datasets: %v", resp)
	}
	var ds struct {
		Datasets []struct {
			Name string `json:"name"`
			Rows int    `json:"rows"`
		} `json:"datasets"`
	}
	if err := json.Unmarshal(resp.body, &ds); err != nil {
		return 0, err
	}
	for _, d := range ds.Datasets {
		if d.Name == datasetName {
			return d.Rows, nil
		}
	}
	return 0, fmt.Errorf("/api/datasets does not list %q", datasetName)
}

// splitmix is a 64-bit mixer for seeded sampling decisions.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind the value
	note  string // how it was formed, for the text report
	// reportOnly metrics are printed but left out of the JSON result,
	// because they are too unsteady run to run to gate a change on.
	reportOnly bool
}

// endToEnd derives the end-to-end metrics from an untraced run.
func (h *httpRun) endToEnd() []metric {
	win := func(ops ...string) []point {
		var v []point
		for _, s := range h.reads {
			if s.phase == "window" && s.resp.ok() && contains(ops, s.op) {
				v = append(v, point{s.at.Sub(h.winStart), ms(s.lat)})
			}
		}
		return v
	}
	var ing []point
	for _, s := range h.ingest {
		if s.resp.ok() {
			ing = append(ing, point{s.at.Sub(h.ingestStart), ms(s.lat)})
		}
	}
	q := win(readOps...)
	pct := func(name string, pts []point, start time.Time, span time.Duration, want float64, what string) metric {
		v, p, k := splitPercentile(pts, start, span, want, h.steal)
		note := fmt.Sprintf("p%g of %s, median of the calmest %d of %d sub-window(s)", p, what, (k+1)/2, k)
		switch {
		case p == 0:
			note = "max of " + what + " (too few samples for any percentile)"
		case p < want:
			note += fmt.Sprintf("; p%g needs ≥%d samples", want, int(math.Ceil(100*minBeyond/(100-want))))
		}
		return metric{name: name, value: v, unit: "ms", n: len(pts), note: note}
	}
	return []metric{
		{name: "setup_s", value: medianOf(seconds(h.setup)), unit: "s", n: len(h.setup), note: fmt.Sprintf("median boot, exec → /readyz 200, of %.3f", seconds(h.setup))},
		{name: "query_rps", value: splitRate(q, h.winStart, h.window, h.steal), unit: "req/s", n: len(q), note: fmt.Sprintf("2xx reads per second, median of the calmest %d of %d sub-windows", (maxSub+1)/2, maxSub)},
		pct("query_p50_ms", q, h.winStart, h.window, 50, "window reads"),
		reportOnly(pct("query_p99_ms", q, h.winStart, h.window, 99, "window reads"), "host steal and fsync stalls"),
		pct("compare_p50_ms", win(opCompare, opOVR), h.winStart, h.window, 50, "pairwise + one-vs-rest compares"),
		pct("fanout_p50_ms", win(opSweep, opAllValues), h.winStart, h.window, 50, "sweeps + all_values"),
		pct("drill_p50_ms", win(opDrill), h.winStart, h.window, 50, "drilldowns"),
		reportOnly(pct("ingest_p50_ms", ing, h.ingestStart, h.ingestSpan, 50, "ingest acks"), "fsync times"),
		reportOnly(pct("ingest_p99_ms", ing, h.ingestStart, h.ingestSpan, 99, "ingest acks"), "fsync tails"),
		{name: "recover_s", value: medianOf(seconds(h.recover)), unit: "s", n: len(h.recover), note: fmt.Sprintf("median restart after kill -9, exec → /readyz 200, of %.3f", seconds(h.recover))},
		{name: "peak_rss_mb", value: medianOf(h.peakRSS), unit: "MiB", n: len(h.peakRSS), note: "median VmHWM of the set-up boots when stopped; the last served the window and ingest"},
	}
}

// reportOnly marks a metric printed but not gated on, naming what on
// a shared virtual machine makes it too unsteady run to run.
func reportOnly(m metric, noise string) metric {
	m.reportOnly = true
	m.note += "; report only: " + noise + " make it unsteady"
	return m
}

func seconds(ds []time.Duration) []float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	return v
}

func values(pts []point) []float64 {
	v := make([]float64, len(pts))
	for i, p := range pts {
		v[i] = p.v
	}
	return v
}

// counts returns the run's attempted and failed requests: every API
// request sent in the read and ingest phases, failed when refused,
// erroring, partial or wrong, plus each answer compared with the
// reference, failed when it differed.
func (h *httpRun) counts() (attempted, failed int) {
	for _, s := range append(append([]sample(nil), h.reads...), h.ingest...) {
		attempted++
		if !s.resp.ok() {
			failed++
		}
	}
	return attempted + h.checked, failed + h.checkFailed
}

// traffic describes what the workload's traffic actually looked like.
func (h *httpRun) traffic(sp spec, in *inputs) []string {
	seen := map[string]bool{}
	var repeats, windowReads int
	perOp := map[string]int{}
	for _, s := range h.reads {
		if s.phase == "window" {
			windowReads++
			perOp[s.op]++
			if seen[s.key] {
				repeats++
			}
		}
		seen[s.key] = true
	}
	ops := make([]string, 0, len(perOp))
	for _, op := range readOps {
		ops = append(ops, fmt.Sprintf("%s=%d", op, perOp[op]))
	}
	delta := func(name string) int64 { return h.m2.counter(name) - h.m1.counter(name) }
	hits, misses := delta(engine.CubeCacheHitsCounterName), delta(engine.CubeCacheMissesCounterName)
	rhits, rmisses := delta(engine.ResultCacheHitsCounterName), delta(engine.ResultCacheMissesCounterName)
	acked := h.acked()
	offered := "closed-loop bulk after the window"
	if sp.ingestRate > 0 {
		offered = fmt.Sprintf("%.0f rows/s open-loop", sp.ingestRate*batchRows)
	}
	budget := "eager (all cubes pinned)"
	if sp.lazy {
		budget = fmt.Sprintf("%d B cache = %.2f × pair cubes", in.cacheByte, sp.cacheShare)
	}
	return []string{
		fmt.Sprintf("shape: %s, rows × attributes = %d × %d", sp.describe(), in.ds.NumRows(), in.ds.NumAttrs()),
		fmt.Sprintf("op mix: configured %s; window %s", opMix(sp.mix), strings.Join(ops, " ")),
		fmt.Sprintf("key-repeat share: %s of window reads repeat an earlier key", ratio(int64(repeats), int64(windowReads))),
		fmt.Sprintf("result-cache hit share: %s of window lookups", ratio(rhits, rhits+rmisses)),
		fmt.Sprintf("cube-miss share: %s of window cube-cache lookups", ratio(misses, hits+misses)),
		fmt.Sprintf("pair-cube bytes: %d; %s", in.pairBytes, budget),
		fmt.Sprintf("ingest: offered %s; acknowledged %d of %d batches = %.0f rows/s", offered, acked, len(h.ingest), float64(acked*batchRows)/h.ingestSpan.Seconds()),
		fmt.Sprintf("host CPU steal: %.4f of the machine's ticks in the window, %.4f in the ingest phase", h.steal.share(h.winStart, h.winStart.Add(h.window)), h.steal.share(h.ingestStart, h.ingestStart.Add(h.ingestSpan))),
		fmt.Sprintf("case-study answers checked: %d; sampled answers checked against the reference: %d", h.plantedSeen, h.checked),
	}
}

func ratio(a, b int64) string {
	if b == 0 {
		return "0 (base 0)"
	}
	return fmt.Sprintf("%.4f (%d/%d)", float64(a)/float64(b), a, b)
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// mkRunDir creates the run's scratch directory under root.
func mkRunDir(root, workload string, seed int64) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("%s-seed%d-pid%d", workload, seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
