// Command perfbench is opmap's end-to-end benchmark. It generates a
// seeded call log and request stream for one workload, boots the real
// opmapd binary on it, drives it over loopback HTTP with at most two
// connections, checks the answers against an in-process reference
// session, and prints every metric with its unit and sample count. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also replays the same stream in-process through each layer's
// public functions and reports per-layer metrics instead.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload eager-analyst --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var (
		name    = flag.String("workload", "", "workload to run: eager-analyst, lazy-wide or ingest-recover")
		seed    = flag.Int64("seed", 1, "seed for the dataset and request stream")
		seconds = flag.Int("seconds", 10, "length of the measurement window")
		trace   = flag.Int("trace", 0, "1 adds the in-process traced run and reports per-layer metrics")
		opmapd  = flag.String("opmapd", ".bench_build/opmapd", "opmapd binary to benchmark")
		work    = flag.String("work", ".bench_build/work", "directory for generated data, WALs and snapshots")
	)
	flag.Parse()
	sp, ok := specByName(*name)
	if !ok {
		log.Fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		log.Fatal("-seconds must be ≥ 1 and -trace 0 or 1")
	}
	// The load generator allocates per request; collecting less often
	// keeps its own GC from competing with opmapd for the two CPUs.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, sp, *seed, *seconds, *trace == 1, *opmapd, *work); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, sp spec, seed int64, seconds int, traced bool, opmapd, work string) error {
	bin, err := filepath.Abs(opmapd)
	if err != nil {
		return err
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("opmapd binary: %w", err)
	}
	dir, err := mkRunDir(work, sp.name, seed)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := env{opmapd: bin, work: dir}
	t0 := time.Now()
	in, err := makeInputs(sp, seed, seconds, dir)
	if err != nil {
		return err
	}
	log.Printf("%s: inputs generated in %.1fs", sp.name, time.Since(t0).Seconds())
	h, err := runHTTP(ctx, sp, seed, seconds, e, in)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d: %s\n", sp.name, seed, sp.why)
	for _, line := range h.traffic(sp, in) {
		fmt.Println("  " + line)
	}
	attempted, failed := h.counts()
	fmt.Printf("  fail_share = %s\n", ratio(int64(failed), int64(attempted)))
	for _, p := range h.problems {
		fmt.Println("  PROBLEM: " + p)
	}
	var metrics []metric
	if traced {
		t, err := runTraced(ctx, sp, seed, seconds, in, h, dir)
		if err != nil {
			return err
		}
		metrics = perLayer(h, t)
	} else {
		metrics = h.endToEnd()
	}
	out := map[string]any{}
	for _, m := range metrics {
		fmt.Printf("  %-28s %14.4f %-6s n=%-6d %s\n", m.name, m.value, m.unit, m.n, m.note)
		if !m.reportOnly {
			out[m.name] = map[string]any{"value": finite(m.value), "unit": m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(h.problems) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// finite maps a metric that could not be formed (NaN, no samples) to
// -1, which JSON can carry and no real measurement produces.
func finite(v float64) float64 {
	if v != v || v > 1e300 || v < -1e300 {
		return -1
	}
	return v
}
