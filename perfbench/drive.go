package main

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// sample is one request's outcome as the load generator saw it.
type sample struct {
	op    string
	key   string
	idx   int           // position in the stream (reads) or batch number (ingest)
	at    time.Time     // when it was sent
	lat   time.Duration // reads: send → answer; open-loop ingest: due → answer
	late  time.Duration // open-loop ingest: send − due
	resp  response
	phase string
}

// feed hands out a stream's requests in order to concurrent clients.
type feed struct {
	mu sync.Mutex
	st *stream
}

func (f *feed) next() (int, request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.st.drawn
	return i, f.st.next()
}

// closedLoop runs n clients until the deadline, each sending the
// feed's next request only once its previous one was answered.
// keepBody reports which answers to keep whole for the answer checks;
// check inspects every answer and returns a non-empty reason for a
// wrong one.
func closedLoop(ctx context.Context, client *http.Client, base string, f *feed, n int, until time.Time, phase string,
	keepBody func(i int) bool, check func(r request, resp response) string) []sample {
	out := make([][]sample, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(until) && ctx.Err() == nil {
				i, r := f.next()
				t0 := time.Now()
				resp := do(ctx, client, base, r)
				s := sample{op: r.op, key: r.key, idx: i, at: t0, lat: time.Since(t0), resp: resp, phase: phase}
				if s.resp.ok() {
					if why := check(r, resp); why != "" {
						s.resp.err = wrongAnswer(why)
					}
				}
				if !keepBody(i) {
					s.resp.body = nil
				}
				out[c] = append(out[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// wrongAnswer marks a 2xx response whose content failed a check.
type wrongAnswer string

func (w wrongAnswer) Error() string { return "wrong answer: " + string(w) }

// openLoopIngest sends batches on one connection at a fixed rate,
// timing each from when it was due. A batch that is due while the
// previous one is still outstanding leaves late.
func openLoopIngest(ctx context.Context, client *http.Client, base string, batches []batch, sched openLoop) []sample {
	out := make([]sample, 0, len(batches))
	for i, b := range batches {
		if d := time.Until(sched.due(i)); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		resp := do(ctx, client, base, ingestReq(b))
		lat, late := sched.measure(i, sent, time.Now())
		out = append(out, sample{op: opIngest, idx: i, at: sent, lat: lat, late: late, resp: resp, phase: "window"})
	}
	return out
}

// closedLoopIngest sends every batch as soon as the previous one was
// acknowledged (a bulk load).
func closedLoopIngest(ctx context.Context, client *http.Client, base string, batches []batch) []sample {
	out := make([]sample, 0, len(batches))
	for i, b := range batches {
		t0 := time.Now()
		resp := do(ctx, client, base, ingestReq(b))
		out = append(out, sample{op: opIngest, idx: i, at: t0, lat: time.Since(t0), resp: resp, phase: "bulk"})
	}
	return out
}
