package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"

	"opmap"
	"opmap/internal/server"
)

// datasetName is the name the benchmark serves its call log under.
const datasetName = "calls"

// reference answers the same requests as the daemon from an in-process
// Session over the same CSV. It runs the lazy engine with an unlimited
// cube cache whatever the daemon's engine is, so an answer served from
// eager cubes is checked against cubes counted on demand.
type reference struct {
	sess    *opmap.Session
	handler http.Handler
}

func newReference(csvPath string) (*reference, error) {
	sess, err := opmap.LoadCSVFile(csvPath, opmap.LoadOptions{Class: classAttr})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if err := sess.Discretize(opmap.DiscretizeOptions{}); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if err := sess.BuildCubesOptions(context.Background(), opmap.BuildOptions{Lazy: true, CubeCacheBytes: -1}); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	srv, err := server.New(server.Config{Sessions: map[string]*opmap.Session{datasetName: sess}})
	if err != nil {
		return nil, err
	}
	return &reference{sess: sess, handler: srv.Handler()}, nil
}

func (ref *reference) answer(r request) response {
	req := httptest.NewRequest(r.method(), r.path, bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	ref.handler.ServeHTTP(rec, req)
	return response{status: rec.Code, body: rec.Body.Bytes()}
}

// apply appends acknowledged ingest batches in WAL order, as the
// daemon's apply worker and its replay do.
func (ref *reference) apply(acked []ackedBatch) error {
	sort.Slice(acked, func(i, j int) bool { return acked[i].seq < acked[j].seq })
	for _, a := range acked {
		if err := ref.sess.AppendSeq(context.Background(), a.rows, a.seq); err != nil {
			return fmt.Errorf("reference append seq %d: %w", a.seq, err)
		}
	}
	return nil
}

// ackedBatch is an ingest batch opmapd acknowledged, with its WAL
// sequence.
type ackedBatch struct {
	seq  uint64
	rows [][]string
}

// sameAnswer compares two JSON answers field by field, numbers within
// a relative 1e-9, and returns "" when they agree or where they differ.
func sameAnswer(got, want []byte) string {
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		return "daemon answer is not JSON: " + err.Error()
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return "reference answer is not JSON: " + err.Error()
	}
	return diffJSON("$", g, w)
}

func diffJSON(path string, g, w any) string {
	switch wv := w.(type) {
	case map[string]any:
		gv, ok := g.(map[string]any)
		if !ok || len(gv) != len(wv) {
			return path + ": object shape differs"
		}
		keys := make([]string, 0, len(wv))
		for k := range wv {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if d := diffJSON(path+"."+k, gv[k], wv[k]); d != "" {
				return d
			}
		}
	case []any:
		gv, ok := g.([]any)
		if !ok || len(gv) != len(wv) {
			return path + ": array length differs"
		}
		for i := range wv {
			if d := diffJSON(fmt.Sprintf("%s[%d]", path, i), gv[i], wv[i]); d != "" {
				return d
			}
		}
	case float64:
		gv, ok := g.(float64)
		if !ok || math.Abs(gv-wv) > 1e-9*math.Max(1, math.Abs(wv)) {
			return fmt.Sprintf("%s: %v, reference %v", path, g, w)
		}
	default:
		if g != w {
			return fmt.Sprintf("%s: %v, reference %v", path, g, w)
		}
	}
	return ""
}

// plantedCheck verifies the case-study answer: comparing the good and
// the bad phone on dropped calls must rank the planted distinguishing
// attribute first and set the phone's hardware version aside as a
// property attribute.
func plantedCheck(body []byte) string {
	var resp struct {
		Ranked   []struct{ Name string } `json:"ranked"`
		Property []struct{ Name string } `json:"property"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "case-study answer is not JSON: " + err.Error()
	}
	if len(resp.Ranked) == 0 || resp.Ranked[0].Name != "Time-of-Call" {
		return "case study: Time-of-Call is not ranked #1"
	}
	for _, p := range resp.Property {
		if p.Name == "Phone-Hardware-Version" {
			return ""
		}
	}
	return "case study: Phone-Hardware-Version is not a property attribute"
}
