package wal

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"opmap/internal/obsv"
)

// rowsOf returns n one-field rows tagged with the record number.
func rowsOf(rec, n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{fmt.Sprintf("r%d-%d", rec, i)}
	}
	return rows
}

// TestReplayGroupsRunsAndCounter: records arrive decoded and in order,
// in runs that close before a record would take them past GroupRows
// (an oversized record is a run of its own); the replayed-records
// counter counts records, not runs, and only once a run is accepted.
func TestReplayGroupsRunsAndCounter(t *testing.T) {
	reg := obsv.NewRegistry()
	l, err := Open(t.TempDir(), Options{Metrics: reg, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sizes := []int{GroupRows / 2, GroupRows / 4, GroupRows / 2, GroupRows + 1, 3, 5}
	var want []Batch
	for i, n := range sizes {
		rows := rowsOf(i, n)
		seq, err := l.Append(EncodeRows(rows))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Batch{Seq: seq, Rows: rows})
	}
	var got []Batch
	var runs []int
	n, err := l.ReplayGroups(2, func(run []Batch) error {
		got = append(got, run...)
		runs = append(runs, len(run))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(sizes)-1 || !reflect.DeepEqual(got, want[1:]) {
		t.Fatalf("replayed %d records, equal to the log tail: %v", n, reflect.DeepEqual(got, want[1:]))
	}
	// From seq 2: {1/4, 1/2} fits, the oversized record stands alone,
	// then the two small records share a run.
	if wantRuns := []int{2, 1, 2}; !reflect.DeepEqual(runs, wantRuns) {
		t.Errorf("runs = %v, want %v", runs, wantRuns)
	}
	if v := reg.Counter(ReplayedRecordsCounterName).Value(); v != int64(n) {
		t.Errorf("replayed counter = %d, want %d", v, n)
	}

	// A rejected run is not counted and stops the replay.
	stop := errors.New("stop")
	n, err = l.ReplayGroups(1, func([]Batch) error { return stop })
	if !errors.Is(err, stop) || n != 0 {
		t.Errorf("failing callback: n = %d, err = %v", n, err)
	}
	if v := reg.Counter(ReplayedRecordsCounterName).Value(); v != int64(len(sizes)-1) {
		t.Errorf("a rejected run moved the counter to %d", v)
	}
}

// TestReplayGroupsUndecodablePayload: a CRC-valid record that is not a
// rows payload aborts the replay with an error naming its sequence,
// after the records before it are delivered.
func TestReplayGroupsUndecodablePayload(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Metrics: obsv.NewRegistry(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(EncodeRows(rowsOf(0, 2))); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte{0xff}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(EncodeRows(rowsOf(2, 2))); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	n, err := l.ReplayGroups(1, func(run []Batch) error {
		for _, b := range run {
			got = append(got, b.Seq)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "seq 2") {
		t.Fatalf("err = %v, want a decode error naming seq 2", err)
	}
	if n != 1 || !reflect.DeepEqual(got, []uint64{1}) {
		t.Errorf("delivered %d record(s) %v, want exactly seq 1 (the one before the bad record)", n, got)
	}
}
