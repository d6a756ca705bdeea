package main

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"parsurf/internal/store"
)

// TestTimedStorePassesThrough drives every Store method through the
// decorator and checks results and errors against the wrapped store.
func TestTimedStorePassesThrough(t *testing.T) {
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := newTimedStore(fs)
	var st store.Store = ts

	if _, err := st.GetJob("job-1"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("GetJob on empty store: %v, want ErrNotFound", err)
	}
	if _, err := st.GetResult("abc"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("GetResult on empty store: %v, want ErrNotFound", err)
	}
	if _, err := st.GetCheckpoint("abc", "v0-r0"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("GetCheckpoint on empty store: %v, want ErrNotFound", err)
	}
	if _, err := st.GetShardResult("job-1", "v0-0-8"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("GetShardResult on empty store: %v, want ErrNotFound", err)
	}
	if err := st.PutJob(&store.JobRecord{ID: "../x"}); err == nil {
		t.Error("PutJob with a bad key succeeded through the decorator")
	}

	rec := &store.JobRecord{ID: "job-1", Seq: 1, State: "queued"}
	if err := st.PutJob(rec); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetJob("job-1")
	if err != nil || !reflect.DeepEqual(got, rec) {
		t.Errorf("GetJob = %+v, %v", got, err)
	}
	if jobs, err := st.Jobs(); err != nil || len(jobs) != 1 {
		t.Errorf("Jobs = %v, %v", jobs, err)
	}
	res := &store.Result{Variants: []store.Variant{{Species: []string{"*"}, T: []float64{0, 1}, Mean: [][]float64{{1, 0.5}}, Std: [][]float64{{0, 0.1}}}}}
	if err := st.PutResult("abc", res); err != nil {
		t.Fatal(err)
	}
	if got, err := st.GetResult("abc"); err != nil || !reflect.DeepEqual(got, res) {
		t.Errorf("GetResult = %+v, %v", got, err)
	}
	if err := st.PutCheckpoint("abc", "v0-r0", []byte("ck")); err != nil {
		t.Fatal(err)
	}
	if b, err := st.GetCheckpoint("abc", "v0-r0"); err != nil || !bytes.Equal(b, []byte("ck")) {
		t.Errorf("GetCheckpoint = %q, %v", b, err)
	}
	if slots, err := st.Checkpoints("abc"); err != nil || len(slots) != 1 {
		t.Errorf("Checkpoints = %v, %v", slots, err)
	}
	if err := st.DeleteCheckpoints("abc"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetCheckpoint("abc", "v0-r0"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("GetCheckpoint after delete: %v", err)
	}
	shard := &store.ShardRecord{ID: "v0-0-8", JobID: "job-1", Hi: 8, State: "queued"}
	if err := st.PutShard(shard); err != nil {
		t.Fatal(err)
	}
	if recs, err := st.Shards("job-1"); err != nil || len(recs) != 1 || !reflect.DeepEqual(recs[0], shard) {
		t.Errorf("Shards = %+v, %v", recs, err)
	}
	if err := st.PutShardResult("job-1", "v0-0-8", []byte("rows")); err != nil {
		t.Fatal(err)
	}
	if b, err := st.GetShardResult("job-1", "v0-0-8"); err != nil || !bytes.Equal(b, []byte("rows")) {
		t.Errorf("GetShardResult = %q, %v", b, err)
	}
	if err := st.DeleteShards("job-1"); err != nil {
		t.Fatal(err)
	}
	if recs, err := st.Shards("job-1"); err != nil || len(recs) != 0 {
		t.Errorf("Shards after delete = %v, %v", recs, err)
	}

	ms, written := ts.snapshot()
	for method, want := range map[string]int{
		"put_job": 2, "put_result": 1, "get_result": 2, "put_shard": 1, "put_shard_result": 1,
	} {
		if len(ms[method]) != want {
			t.Errorf("%s timed %d calls, want %d", method, len(ms[method]), want)
		}
	}
	if len(ms) != len(storeMethods) {
		t.Errorf("timed methods %v, want only %v", ms, storeMethods)
	}
	want := int64(jsonLen(rec) + jsonLen(res) + 2 + jsonLen(shard) + 4)
	if written != want {
		t.Errorf("bytes written = %d, want %d", written, want)
	}
	ts.reset()
	if ms, written := ts.snapshot(); len(ms) != 0 || written != 0 {
		t.Errorf("after reset: %v, %d", ms, written)
	}
}
