package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	// root [0,100) with children [10,30) and [20,50) overlapping, and
	// [90,120) overhanging the end; grandchild [12,18) under the first.
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (50 - 10) - (100 - 90), // union of children clipped to the root
		2: 20 - 6,
		3: 30,
		4: 30,
		5: 6,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSummarizeAggregatesByName(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "job", Start: 0, End: 4e6},
		{ID: 2, Parent: 1, Name: "http", Start: 1e6, End: 2e6},
		{ID: 3, Name: "job", Start: 10e6, End: 12e6},
	}
	sum := summarize(spans)
	if len(sum) != 2 || sum[0].Name != "http" || sum[1].Name != "job" {
		t.Fatalf("summary = %+v", sum)
	}
	if j := sum[1]; j.Count != 2 || j.TotalMs != 6 || j.SelfMs != 5 {
		t.Errorf("job summary = %+v, want count 2, total 6 ms, self 5 ms", j)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	if id := tr.NewID(); id != 0 {
		t.Errorf("nil tracer NewID = %d", id)
	}
	tr.Record(1, 0, "x", "", time.Now(), time.Now())
	if tr.Spans() != nil {
		t.Error("nil tracer kept spans")
	}
	live := newTracer()
	id := live.NewID()
	live.Record(id, 0, "x", "job-1", time.Now(), time.Now())
	if s := live.Spans(); len(s) != 1 || s[0].ID != id || s[0].Job != "job-1" {
		t.Errorf("spans = %+v", s)
	}
}
