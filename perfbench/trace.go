package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"opmap"
	"opmap/internal/engine"
	"opmap/internal/obsv"
	"opmap/internal/rulecube"
	"opmap/internal/server"
	"opmap/internal/wal"
)

// span is one recorded interval at a layer boundary. Spans of one
// request share a trace id; set-up and recovery spans use trace 0.
// busy holds the in-program children of the span known only as summed
// durations: the per-request deltas of the histograms the program
// already records.
type span struct {
	Trace  int                      `json:"trace"`
	ID     int                      `json:"id"`
	Parent int                      `json:"parent"`
	Name   string                   `json:"name"`
	Start  int64                    `json:"start_ns"` // since the traced run began
	End    int64                    `json:"end_ns"`
	Busy   map[string]time.Duration `json:"busy_ns,omitempty"`
	iv     interval
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) record(trace, parent int, name string, iv interval, busy map[string]time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(iv.start.Sub(t.origin)), End: int64(iv.end.Sub(t.origin)),
		Busy: busy, iv: iv,
	})
	return id
}

// timed runs fn, records it as a set-up span and returns its duration.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.record(0, 0, name, interval{start, end}, nil)
	return end.Sub(start), err
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// probes reads the program's own histograms and counters, whose
// per-request deltas become child spans and counts.
type probes struct {
	stage              map[string]*obsv.Histogram // by read op
	lazy, batch, cube  *obsv.Histogram
	attr, fsync        *obsv.Histogram
	drillRuns, drillNd *obsv.Counter
}

func newProbes() probes {
	reg := obsv.Default()
	stage := func(name string) *obsv.Histogram { return reg.Histogram(obsv.StageHistogramName, nil, "stage", name) }
	return probes{
		stage: map[string]*obsv.Histogram{
			opCompare:   stage(obsv.StageCompare),
			opOVR:       stage(obsv.StageCompareOneVsRest),
			opAllValues: stage(obsv.StageCompareOneVsRestAll),
			opSweep:     stage(obsv.StageSweep),
			opDrill:     stage(obsv.StageDrillDown),
		},
		lazy:      reg.Histogram(engine.LazyBuildHistogramName, nil),
		batch:     reg.Histogram(engine.BatchBuildHistogramName, nil),
		cube:      reg.Histogram(obsv.CubeBuildHistogramName, nil),
		attr:      reg.Histogram(obsv.CompareAttrHistogramName, nil),
		fsync:     reg.Histogram(wal.FsyncHistogramName, nil),
		drillRuns: reg.Counter(obsv.DrillDownRunsCounterName),
		drillNd:   reg.Counter(obsv.DrillDownNodesCounterName),
	}
}

// reading is a probe snapshot.
type reading struct {
	stage                          time.Duration
	lazy, batch, cube, attr, fsync time.Duration
	attrN, drillRuns, drill        int64
}

func (p probes) read(op string) reading {
	sec := func(h *obsv.Histogram) time.Duration { return time.Duration(h.Sum() * float64(time.Second)) }
	r := reading{
		lazy: sec(p.lazy), batch: sec(p.batch), cube: sec(p.cube), attr: sec(p.attr), fsync: sec(p.fsync),
		attrN: p.attr.Count(), drillRuns: p.drillRuns.Value(), drill: p.drillNd.Value(),
	}
	if h, ok := p.stage[op]; ok {
		r.stage = sec(h)
	}
	return r
}

func (r reading) minus(o reading) reading {
	return reading{
		stage: r.stage - o.stage, lazy: r.lazy - o.lazy, batch: r.batch - o.batch, cube: r.cube - o.cube,
		attr: r.attr - o.attr, fsync: r.fsync - o.fsync, attrN: r.attrN - o.attrN,
		drillRuns: r.drillRuns - o.drillRuns, drill: r.drill - o.drill,
	}
}

// reqTrace is the per-layer breakdown of one traced request.
type reqTrace struct {
	op                             string
	total                          time.Duration // ServeHTTP
	server, session, drill         time.Duration // self times
	compareScore, engineBuild      time.Duration
	scan                           time.Duration // every row scan: on-demand and batched
	walAppend, walFsync, apply     time.Duration
	walSelf                        time.Duration
	attrsScored, drillRuns, drillN int64
}

// tracedRun is what the in-process replay measured.
type tracedRun struct {
	loadCSV, discretize, buildStore, buildBusy time.Duration
	snapLoad, replay                           time.Duration
	replayed                                   int
	snapBytes, walBytes                        int64
	rowsIngested                               int
	reqs                                       []reqTrace
	untracedTotals                             []time.Duration // interleaved requests without tracing
}

// runTraced replays the untraced run's requests, in the order they were
// sent, through an in-process server over a session configured like
// the daemon, recording spans around every public call. Every other
// request runs with tracing off, so the two halves give the tracing
// overhead.
func runTraced(ctx context.Context, sp spec, seed int64, seconds int, in *inputs, h *httpRun, dir string) (*tracedRun, error) {
	tr := &tracer{origin: time.Now()}
	out := &tracedRun{}
	p := newProbes()
	obsv.ArmHot(true)
	defer obsv.ArmHot(false)

	var sess *opmap.Session
	var err error
	if out.loadCSV, err = tr.timed("dataset.load", func() error {
		sess, err = opmap.LoadCSVFile(in.csv, opmap.LoadOptions{Class: classAttr})
		return err
	}); err != nil {
		return nil, err
	}
	if out.discretize, err = tr.timed("dataset.discretize", func() error { return sess.Discretize(opmap.DiscretizeOptions{}) }); err != nil {
		return nil, err
	}
	before := p.read("")
	start := time.Now()
	if err := sess.BuildCubesOptions(ctx, opmap.BuildOptions{Lazy: sp.lazy, CubeCacheBytes: in.cacheByte}); err != nil {
		return nil, err
	}
	out.buildStore = time.Since(start)
	out.buildBusy = p.read("").minus(before).cube
	tr.record(0, 0, "rulecube.build_store", interval{start, start.Add(out.buildStore)}, map[string]time.Duration{"cube_builds": out.buildBusy})
	snapPath := filepath.Join(dir, "traced.omapsnap")
	if sp.snapshot {
		if _, err := tr.timed("snapshot.save", func() error { return sess.SaveSnapshotFile(snapPath, opmap.SnapshotOptions{}) }); err != nil {
			return nil, err
		}
	}
	walDir := filepath.Join(dir, "traced-wal")
	lg, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer lg.Close()

	// The ingest hook mirrors opmapd's: validate, append durably, then
	// fold into the session. It applies inline rather than through a
	// queue, so the request's span holds the whole write.
	var cur *reqTrace
	var curID int
	cfg := server.Config{
		Sessions: map[string]*opmap.Session{datasetName: sess},
		Ingest: func(ctx context.Context, _ string, rows [][]string) (uint64, error) {
			if err := sess.ValidateBatch(rows); err != nil {
				return 0, err
			}
			f0 := p.read("")
			t0 := time.Now()
			seq, err := lg.Append(wal.EncodeRows(rows))
			t1 := time.Now()
			if err != nil {
				return 0, err
			}
			err = sess.AppendSeq(ctx, rows, seq)
			t2 := time.Now()
			fsync := p.read("").minus(f0).fsync
			if cur != nil {
				cur.walAppend, cur.walFsync, cur.apply = t1.Sub(t0), fsync, t2.Sub(t1)
				cur.walSelf = selfTime(interval{t0, t1}, nil, fsync)
				tr.record(curID, curID, "wal.append", interval{t0, t1}, map[string]time.Duration{"fsync": fsync})
				tr.record(curID, curID, "ingest.apply", interval{t1, t2}, nil)
			}
			out.rowsIngested += len(rows)
			return seq, err
		},
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	handler := srv.Handler()

	type step struct {
		at time.Time
		r  request
	}
	var steps []step
	for _, s := range h.reads {
		steps = append(steps, step{s.at, requestOf(s)})
	}
	for _, s := range h.ingest {
		steps = append(steps, step{s.at, ingestReq(in.batches[s.idx])})
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at.Before(steps[j].at) })
	// One in-process client can be slower than two over HTTP, so reads
	// past a time budget are skipped; every ingest batch still runs, so
	// the recovery below replays them all.
	deadline := time.Now().Add(2 * (warmup + time.Duration(seconds)*time.Second))
	skipped := 0
	for i, st := range steps {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if st.r.op != opIngest && time.Now().After(deadline) {
			skipped++
			continue
		}
		traced := i%2 == 0
		obsv.ArmHot(traced)
		req := httptest.NewRequest(st.r.method(), st.r.path, bytes.NewReader(st.r.body))
		rec := httptest.NewRecorder()
		if !traced {
			t0 := time.Now()
			handler.ServeHTTP(rec, req)
			if st.r.op != opIngest {
				out.untracedTotals = append(out.untracedTotals, time.Since(t0))
			}
			continue
		}
		rt := &reqTrace{op: st.r.op}
		// The request's span is reserved first so the ingest hook can
		// parent its spans to it; its extent is filled in afterwards.
		id := tr.record(i+1, 0, "server.ServeHTTP", interval{}, nil)
		cur, curID = rt, id
		b := p.read(st.r.op)
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		iv := interval{t0, time.Now()}
		d := p.read(st.r.op).minus(b)
		cur = nil
		if rec.Code/100 != 2 {
			return nil, fmt.Errorf("traced %s %s: HTTP %d: %s", st.r.op, st.r.path, rec.Code, rec.Body.Bytes())
		}
		tr.spans[id-1].Start, tr.spans[id-1].End, tr.spans[id-1].iv = int64(t0.Sub(tr.origin)), int64(iv.end.Sub(tr.origin)), iv
		rt.total = iv.dur()
		if st.r.op == opIngest {
			var kids []interval
			for _, s := range tr.spans[id:] {
				kids = append(kids, s.iv)
			}
			rt.server = selfTime(iv, kids, 0)
			out.reqs = append(out.reqs, *rt)
			continue
		}
		// The op's stage histogram spans the public Session call; inside
		// it, the compare hot loop (which holds the on-demand pair-cube
		// builds) and batched builds are the known children.
		stageIv := interval{t0, t0.Add(d.stage)}
		tr.record(i+1, id, "session."+st.r.op, stageIv, map[string]time.Duration{
			"compare_attrs": d.attr, "lazy_builds": d.lazy, "batch_builds": d.batch,
		})
		rt.server = selfTime(iv, []interval{stageIv}, 0)
		// On-demand builds mostly run inside the compare loop (Cube2), but
		// some run outside it (Cube1, pair screening), and the split is
		// not observable. Scoring is the loop minus all of them, so
		// scoring plus builds never exceeds the stage; the builds made
		// outside the loop are counted once, as engine time.
		rt.compareScore = selfTime(interval{t0, t0.Add(d.attr)}, nil, d.lazy)
		rt.engineBuild = d.lazy
		rt.scan = d.lazy + d.batch
		inner := selfTime(stageIv, nil, rt.compareScore+rt.scan)
		if st.r.op == opDrill {
			rt.drill = inner
		} else {
			rt.session = inner
		}
		rt.attrsScored, rt.drillRuns, rt.drillN = d.attrN, d.drillRuns, d.drill
		out.reqs = append(out.reqs, *rt)
	}
	if skipped > 0 {
		log.Printf("%s: traced replay skipped the last %d of %d reads (time budget)", sp.name, skipped, len(h.reads))
	}

	// Crash recovery, in-process: the boot snapshot (or, without one,
	// the CSV) plus a replay of every WAL record.
	if err := lg.Close(); err != nil {
		return nil, err
	}
	out.walBytes = dirBytes(walDir)
	var rec *opmap.Session
	start = time.Now()
	if sp.snapshot {
		rec, err = opmap.LoadSnapshotFile(snapPath)
		if err != nil {
			return nil, err
		}
		out.snapLoad = time.Since(start)
		tr.record(0, 0, "snapshot.load", interval{start, start.Add(out.snapLoad)}, nil)
		if fi, err := os.Stat(snapPath); err == nil {
			out.snapBytes = fi.Size()
		}
	} else {
		if rec, err = opmap.LoadCSVFile(in.csv, opmap.LoadOptions{Class: classAttr}); err != nil {
			return nil, err
		}
		if err := rec.Discretize(opmap.DiscretizeOptions{}); err != nil {
			return nil, err
		}
		if err := rec.BuildCubesOptions(ctx, opmap.BuildOptions{Lazy: sp.lazy, CubeCacheBytes: in.cacheByte}); err != nil {
			return nil, err
		}
		tr.record(0, 0, "dataset.reload", interval{start, time.Now()}, nil)
	}
	rlg, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer rlg.Close()
	start = time.Now()
	out.replayed, err = rlg.Replay(rec.IngestSeq()+1, func(seq uint64, payload []byte) error {
		rows, err := wal.DecodeRows(payload)
		if err != nil {
			return err
		}
		return rec.AppendSeq(ctx, rows, seq)
	})
	if err != nil {
		return nil, err
	}
	out.replay = time.Since(start)
	tr.record(0, 0, "wal.replay", interval{start, start.Add(out.replay)}, nil)
	if err := tr.write(filepath.Join(filepath.Dir(filepath.Dir(dir)), "traces", fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed))); err != nil {
		return nil, err
	}
	return out, nil
}

func dirBytes(dir string) int64 {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && !e.IsDir() {
			n += fi.Size()
		}
	}
	return n
}

// perLayer combines the traced run's breakdown with the untraced run's
// counters into the per-layer metrics.
func perLayer(h *httpRun, t *tracedRun) []metric {
	pick := func(keep func(r reqTrace) bool, val func(r reqTrace) time.Duration) dist {
		var v []float64
		for _, r := range t.reqs {
			if keep(r) {
				v = append(v, ms(val(r)))
			}
		}
		return newDist(v)
	}
	isRead := func(r reqTrace) bool { return r.op != opIngest }
	isIngest := func(r reqTrace) bool { return r.op == opIngest }
	reads := pick(isRead, func(r reqTrace) time.Duration { return r.total })
	meanMs := func(val func(r reqTrace) time.Duration) float64 {
		var sum time.Duration
		for _, r := range t.reqs {
			if isRead(r) {
				sum += val(r)
			}
		}
		if reads.n() == 0 {
			return 0
		}
		return ms(sum) / float64(reads.n())
	}
	var attrs, runs, nodes int64
	var selfSum, totalSum time.Duration
	for _, r := range t.reqs {
		attrs += r.attrsScored
		runs += r.drillRuns
		nodes += r.drillN
		totalSum += r.total
		selfSum += r.server + r.session + r.drill + r.compareScore + r.scan + r.walSelf + r.walFsync + r.apply
	}
	us := func(d dist, p float64) float64 { return 1000 * percentile(d.sorted, p) }
	server := pick(isRead, func(r reqTrace) time.Duration { return r.server })
	serverTail, serverTailP := server.tail(99)
	session := pick(func(r reqTrace) bool { return isRead(r) && r.op != opDrill }, func(r reqTrace) time.Duration { return r.session })
	drillSelf := pick(func(r reqTrace) bool { return r.op == opDrill }, func(r reqTrace) time.Duration { return r.drill })
	walAppend := pick(isIngest, func(r reqTrace) time.Duration { return r.walAppend })
	walFsync := pick(isIngest, func(r reqTrace) time.Duration { return r.walFsync })
	apply := pick(isIngest, func(r reqTrace) time.Duration { return r.apply })
	var untraced []float64
	for _, d := range t.untracedTotals {
		untraced = append(untraced, ms(d))
	}
	untracedD := newDist(untraced)

	// Counters from the untraced daemon: the window (m1 → m2), or the
	// whole run (m0 → m3) for refusals.
	win := func(name string) int64 { return h.m2.counter(name) - h.m1.counter(name) }
	run := func(name string) int64 { return h.m3.counter(name) - h.m0.counter(name) }
	share := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rh, rm := win(engine.ResultCacheHitsCounterName), win(engine.ResultCacheMissesCounterName)
	ch, cm := win(engine.CubeCacheHitsCounterName), win(engine.CubeCacheMissesCounterName)
	scans, built := win(rulecube.CubeScansCounterName), win(rulecube.CubesBuiltCounterName)
	var late []float64
	perOp := map[string]int{}
	for _, s := range h.reads {
		if s.phase == "window" {
			perOp[s.op]++
		}
	}
	for _, s := range h.ingest {
		perOp[opIngest]++
		late = append(late, ms(s.late))
	}
	lateD := newDist(late)
	lateP99, _ := lateD.tail(99)
	if lateD.n() == 0 {
		lateP99 = 0
	}
	rows := t.rowsIngested
	if rows == 0 {
		rows = 1
	}
	overhead := 0.0
	if untracedD.n() > 0 && reads.n() > 0 {
		overhead = reads.median()/untracedD.median() - 1
	}
	m := []metric{
		{name: "loadgen.late_p99_ms", value: lateP99, unit: "ms", n: lateD.n(), note: "open-loop ingest: send − due (0 for a closed loop)"},
	}
	for _, op := range append(append([]string(nil), readOps...), opIngest) {
		m = append(m, metric{name: "loadgen.requests." + op, value: float64(perOp[op]), unit: "count", n: perOp[op], note: "untraced window (ingest: whole ingest phase)"})
	}
	m = append(m,
		metric{name: "server.self_p50_us", value: us(server, 50), unit: "us", n: server.n(), note: "ServeHTTP − session span, traced reads"},
		metric{name: "server.self_p99_us", value: serverTail * 1000, unit: "us", n: server.n(), note: fmt.Sprintf("same, p%g", serverTailP)},
		metric{name: "server.sheds", value: float64(run("opmapd_sheds_total")), unit: "count", n: 1, note: "untraced run /metrics delta"},
		metric{name: "server.timeouts", value: float64(run("opmapd_timeouts_total")), unit: "count", n: 1, note: "untraced run /metrics delta"},
		metric{name: "server.partials", value: float64(run("opmapd_partials_total")), unit: "count", n: 1, note: "untraced run /metrics delta"},
		metric{name: "session.self_p50_us", value: us(session, 50), unit: "us", n: session.n(), note: "stage span − scoring − cube builds, traced non-drill reads"},
		metric{name: "resultcache.hit_ratio", value: share(rh, rh+rm), unit: "ratio", n: int(rh + rm), note: "untraced window, base = lookups"},
		metric{name: "resultcache.invalidations", value: float64(win(engine.ResultCacheInvalidationsCounterName)), unit: "count", n: 1, note: "untraced window"},
		metric{name: "engine.cube_hit_ratio", value: share(ch, ch+cm), unit: "ratio", n: int(ch + cm), note: "lazy pair-cube cache, untraced window, base = lookups"},
		metric{name: "engine.build_ms", value: meanMs(func(r reqTrace) time.Duration { return r.engineBuild }), unit: "ms", n: reads.n(), note: "on-demand cube build busy time per traced read"},
		metric{name: "engine.evictions", value: float64(win(engine.CubeCacheEvictionsCounterName)), unit: "count", n: 1, note: "untraced window"},
		metric{name: "engine.cache_bytes", value: float64(h.m2.Gauges[engine.CubeCacheBytesGaugeName]), unit: "bytes", n: 1, note: "resident lazy cube bytes at window end"},
		metric{name: "rulecube.scans", value: float64(scans), unit: "count", n: 1, note: "row scans in the untraced window"},
		metric{name: "rulecube.cubes_built", value: float64(built), unit: "count", n: 1, note: "cubes counted in the untraced window"},
		metric{name: "rulecube.cubes_per_scan", value: share(built, scans), unit: "ratio", n: int(scans), note: "useful cubes per scan, base = scans"},
		metric{name: "rulecube.scan_ms", value: meanMs(func(r reqTrace) time.Duration { return r.scan }), unit: "ms", n: reads.n(), note: "row-scan busy time (single + batched) per traced read"},
		metric{name: "rulecube.build_store_s", value: t.buildStore.Seconds(), unit: "s", n: 1, note: "BuildCubesOptions wall span at set-up"},
		metric{name: "rulecube.build_store_busy_s", value: t.buildBusy.Seconds(), unit: "s", n: 1, note: "summed per-cube build time inside it (parallel workers)"},
		metric{name: "dataset.load_s", value: t.loadCSV.Seconds(), unit: "s", n: 1, note: "LoadCSVFile at set-up"},
		metric{name: "dataset.discretize_s", value: t.discretize.Seconds(), unit: "s", n: 1, note: "Discretize at set-up"},
		metric{name: "compare.attrs_scored", value: float64(attrs) / float64(max(reads.n(), 1)), unit: "count", n: reads.n(), note: "candidate attributes scored per traced read"},
		metric{name: "compare.score_ms", value: meanMs(func(r reqTrace) time.Duration { return r.compareScore }), unit: "ms", n: reads.n(), note: "compare loop minus on-demand builds, per traced read"},
		metric{name: "drill.nodes_per_run", value: share(nodes, runs), unit: "count", n: int(runs), note: "frontier nodes per executed drill-down, base = runs"},
		metric{name: "drill.self_ms", value: drillSelf.median(), unit: "ms", n: drillSelf.n(), note: "p50 drilldown stage − scoring − cube builds"},
		metric{name: "wal.append_p50_ms", value: walAppend.median(), unit: "ms", n: walAppend.n(), note: "Log.Append, traced ingests"},
		metric{name: "wal.fsync_p50_ms", value: walFsync.median(), unit: "ms", n: walFsync.n(), note: "fsync inside Log.Append"},
		metric{name: "wal.bytes_per_row", value: float64(t.walBytes) / float64(rows), unit: "bytes", n: rows, note: "WAL bytes / ingested rows"},
		metric{name: "wal.replay_s", value: t.replay.Seconds(), unit: "s", n: 1, note: "Replay + AppendSeq after the restore"},
		metric{name: "wal.replayed_records", value: float64(t.replayed), unit: "count", n: 1, note: "records replayed in-process"},
		metric{name: "snapshot.load_s", value: t.snapLoad.Seconds(), unit: "s", n: 1, note: "LoadSnapshotFile (0 without a snapshot)"},
		metric{name: "snapshot.bytes", value: float64(t.snapBytes), unit: "bytes", n: 1, note: "boot snapshot size"},
		metric{name: "ingest.apply_p50_ms", value: apply.median(), unit: "ms", n: apply.n(), note: "Session.AppendSeq, traced ingests"},
		metric{name: "ingest.sheds", value: float64(run("opmap_ingest_sheds_total")), unit: "count", n: 1, note: "untraced run /metrics delta"},
		metric{name: "trace.unattributed_share", value: 1 - share(int64(selfSum), int64(totalSum)), unit: "ratio", n: len(t.reqs), note: "1 − Σ self times / Σ ServeHTTP"},
		metric{name: "trace.overhead_share", value: overhead, unit: "ratio", n: untracedD.n(), note: "traced / untraced in-process read p50 − 1"},
	)
	for i := range m {
		if m[i].value != m[i].value { // NaN: a population this workload does not have
			m[i].value = 0
		}
	}
	return m
}
