package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// streamOf draws the first n requests and the ingest batches a
// workload's run would send for seed, over a small call log, and
// returns them with the stream's case-study key.
func streamOf(t *testing.T, sp spec, seed int64, n int) ([]request, []batch, string) {
	t.Helper()
	sp.rows = 500
	ds, _, err := sp.callLog(seed, sp.rows, false)
	if err != nil {
		t.Fatal(err)
	}
	st := newStream(sp, schemaOf(ds), seed)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = st.next()
	}
	ing, _, err := sp.callLog(seed, 4*batchRows, true)
	if err != nil {
		t.Fatal(err)
	}
	return reqs, ingestBatches(ing, 4), st.planted()
}

func TestStreamIsSeeded(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, ab, _ := streamOf(t, sp, 7, 2000)
			b, bb, _ := streamOf(t, sp, 7, 2000)
			if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ab, bb) {
				t.Fatal("the same seed gave different request streams")
			}
			c, cb, _ := streamOf(t, sp, 8, 2000)
			same := 0
			for i := range a {
				if a[i].key == c[i].key {
					same++
				}
			}
			if same > len(a)/2 {
				t.Errorf("seeds 7 and 8 share %d of %d requests", same, len(a))
			}
			if bytes.Equal(ab[0].body, cb[0].body) {
				t.Error("seeds 7 and 8 ingest the same first batch")
			}
			ops := map[string]int{}
			for _, r := range a {
				ops[r.op]++
			}
			for _, s := range sp.mix {
				if ops[s.op] == 0 {
					t.Errorf("op %s never drawn in 2000 requests", s.op)
				}
			}
		})
	}
}

func TestPlantedKeyIsHottest(t *testing.T) {
	sp, _ := specByName("eager-analyst")
	reqs, _, planted := streamOf(t, sp, 3, 5000)
	counts := map[string]int{}
	for _, r := range reqs {
		counts[r.key]++
	}
	for k, n := range counts {
		if n > counts[planted] {
			t.Fatalf("key %s drawn %d times, more than the case study's %d", k, n, counts[planted])
		}
	}
	if got := plantedCheck([]byte(`{"ranked":[{"name":"Time-of-Call"}],"property":[{"name":"Phone-Hardware-Version"}]}`)); got != "" {
		t.Errorf("plantedCheck rejected the planted answer: %s", got)
	}
	if got := plantedCheck([]byte(`{"ranked":[{"name":"Terrain"}],"property":[{"name":"Phone-Hardware-Version"}]}`)); got == "" {
		t.Error("plantedCheck accepted a wrong ranking")
	}
}

func TestRequestOfRoundTrips(t *testing.T) {
	sp, _ := specByName("lazy-wide")
	reqs, _, _ := streamOf(t, sp, 5, 500)
	for _, r := range reqs {
		got := requestOf(sample{op: r.op, key: r.key})
		if got.path != r.path || !bytes.Equal(got.body, r.body) || got.method() != r.method() {
			t.Fatalf("requestOf(%q) = %+v, want %+v", r.key, got, r)
		}
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric names and units a run
// reports to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	h := &httpRun{window: time.Second, ingestSpan: time.Second}
	for _, tc := range []struct {
		what string
		got  []metric
		want []struct{ Name, Unit string }
	}{
		{"end_to_end", h.endToEnd(), decl.EndToEnd},
		{"per_layer", perLayer(h, &tracedRun{}), decl.PerLayer},
	} {
		got := map[string]string{}
		for _, m := range tc.got {
			if !m.reportOnly {
				got[m.name] = m.unit
			}
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: run reports %d metrics, BENCHMARK.json declares %d", tc.what, len(got), len(tc.want))
		}
		for _, w := range tc.want {
			if u, ok := got[w.Name]; !ok || u != w.Unit {
				t.Errorf("%s: %s reported with unit %q, declared %q", tc.what, w.Name, u, w.Unit)
			}
		}
	}
}
