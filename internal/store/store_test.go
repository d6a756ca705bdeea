package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// openBoth runs a subtest against the filesystem store and the
// in-memory one: the interface contract is one suite.
func openBoth(t *testing.T, f func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("fs", func(t *testing.T) {
		s, err := OpenFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		f(t, s)
	})
	t.Run("mem", func(t *testing.T) {
		f(t, NewMem())
	})
}

func TestJobRecordRoundTrip(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		rec := &JobRecord{
			ID:        "job-7",
			Seq:       7,
			Hash:      "abc123",
			State:     "queued",
			Submitted: 12345,
			Request:   json.RawMessage(`{"until":5}`),
		}
		if err := s.PutJob(rec); err != nil {
			t.Fatal(err)
		}
		got, err := s.GetJob("job-7")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip: got %+v, want %+v", got, rec)
		}
		// Overwrite wins.
		rec.State = "done"
		rec.Cached = true
		if err := s.PutJob(rec); err != nil {
			t.Fatal(err)
		}
		got, err = s.GetJob("job-7")
		if err != nil {
			t.Fatal(err)
		}
		if got.State != "done" || !got.Cached {
			t.Fatalf("overwrite lost: %+v", got)
		}
	})
}

func TestMissingKeysAreErrNotFound(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		if _, err := s.GetJob("job-404"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing job: %v, want ErrNotFound", err)
		}
		if _, err := s.GetResult("deadbeef"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing result: %v, want ErrNotFound", err)
		}
	})
}

func TestResultRoundTripIsByteStable(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		res := &Result{Variants: []Variant{{
			Species: []string{"*", "CO", "O"},
			T:       []float64{0, 0.1, 0.30000000000000004},
			Mean:    [][]float64{{1, 0.5, 1.0 / 3}, {0, 0.25, 0.3}, {0, 0.25, 0.1}},
			Std:     [][]float64{{0, 0.01, 0.002}, {0, 0, 0}, {0, 0, 0}},
		}}}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutResult("cafe01", res); err != nil {
			t.Fatal(err)
		}
		got, err := s.GetResult("cafe01")
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(want) {
			t.Fatalf("stored result not byte-identical:\n got %s\nwant %s", out, want)
		}
	})
}

func TestJobsListsEverything(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		for _, id := range []string{"job-1", "job-2", "job-3"} {
			if err := s.PutJob(&JobRecord{ID: id, State: "queued"}); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := s.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, r := range recs {
			ids = append(ids, r.ID)
		}
		sort.Strings(ids)
		if !reflect.DeepEqual(ids, []string{"job-1", "job-2", "job-3"}) {
			t.Fatalf("listed %v", ids)
		}
	})
}

// Listings come back in lexical key order from both backends: the
// filesystem store inherits ReadDir's sorted listing, and the memory
// store must not leak Go's randomized map iteration order. The
// assertions deliberately do NOT sort — the order IS the contract.
// Regression test for a surflint:maporder finding.
func TestListingsAreSorted(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		insert := []string{"job-09", "job-03", "job-17", "job-01", "job-12", "job-05", "job-14", "job-02"}
		for _, id := range insert {
			if err := s.PutJob(&JobRecord{ID: id, State: "queued"}); err != nil {
				t.Fatal(err)
			}
		}
		want := append([]string(nil), insert...)
		sort.Strings(want)
		// Several trials: map iteration order changes run to run, so one
		// lucky ordering must not mask a regression.
		for trial := 0; trial < 8; trial++ {
			recs, err := s.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			var ids []string
			for _, r := range recs {
				ids = append(ids, r.ID)
			}
			if !reflect.DeepEqual(ids, want) {
				t.Fatalf("trial %d: Jobs() order %v, want sorted %v", trial, ids, want)
			}
		}

		slots := []string{"007", "002", "013", "001", "005", "010", "003", "008"}
		for _, slot := range slots {
			if err := s.PutCheckpoint("hash1", slot, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		wantSlots := append([]string(nil), slots...)
		sort.Strings(wantSlots)
		for trial := 0; trial < 8; trial++ {
			got, err := s.Checkpoints("hash1")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantSlots) {
				t.Fatalf("trial %d: Checkpoints() order %v, want sorted %v", trial, got, wantSlots)
			}
		}
	})
}

func TestInvalidKeysRejected(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		for _, id := range []string{"", "../evil", "a/b", ".hidden"} {
			if err := s.PutJob(&JobRecord{ID: id}); err == nil {
				t.Errorf("PutJob accepted key %q", id)
			}
			if _, err := s.GetJob(id); err == nil || errors.Is(err, ErrNotFound) {
				t.Errorf("GetJob(%q): %v, want a key error", id, err)
			}
		}
	})
}

// A store reopened on the same directory serves what was written — the
// durability half of the contract the in-memory store cannot cover.
func TestFSReopenSurvives(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.PutJob(&JobRecord{ID: "job-1", State: "done", Hash: "h1"}); err != nil {
		t.Fatal(err)
	}
	if err := s1.PutResult("h1", &Result{Variants: []Variant{{Species: []string{"*"}}}}); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s2.GetJob("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != "done" || rec.Hash != "h1" {
		t.Fatalf("reopened record %+v", rec)
	}
	if _, err := s2.GetResult("h1"); err != nil {
		t.Fatal(err)
	}
}

// openBothCorruptible is openBoth plus backdoors that corrupt a stored
// job record, result blob or shard record in place — overwriting the
// filesystem file, or the in-memory encoded bytes, with torn JSON — for
// the recovery tests that must hold on both implementations.
func openBothCorruptible(t *testing.T, f func(t *testing.T, s Store, corruptJob, corruptResult func(key string), corruptShard func(jobID, shardID string))) {
	t.Helper()
	torn := []byte(`{"id":"job-1","state":"que`)
	t.Run("fs", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenFS(dir)
		if err != nil {
			t.Fatal(err)
		}
		overwrite := func(sub, name string) {
			if err := os.WriteFile(filepath.Join(dir, sub, name+".json"), torn, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		f(t, s,
			func(id string) { overwrite("jobs", id) },
			func(hash string) { overwrite("results", hash) },
			func(jobID, shardID string) { overwrite(filepath.Join("shards", jobID), shardID) })
	})
	t.Run("mem", func(t *testing.T) {
		s := NewMem()
		f(t, s,
			func(id string) { s.put(space{jobs, ""}, id, torn) },
			func(hash string) { s.put(space{results, ""}, hash, torn) },
			func(jobID, shardID string) { s.put(space{shards, jobID}, shardID, torn) })
	})
}

// A job record torn by a crash that bypassed the atomic-rename path is
// skipped by listings (one bad file must not take down boot recovery)
// while a direct read of it refuses with a clear error — and a torn
// result blob likewise refuses rather than serving garbage. Neither
// path may panic.
func TestTornRecordsSkippedOrRefused(t *testing.T) {
	openBothCorruptible(t, func(t *testing.T, s Store, corruptJob, corruptResult func(string), _ func(string, string)) {
		for _, id := range []string{"job-1", "job-2", "job-3"} {
			if err := s.PutJob(&JobRecord{ID: id, State: "queued"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.PutResult("cafe01", &Result{Variants: []Variant{{Species: []string{"*"}}}}); err != nil {
			t.Fatal(err)
		}
		corruptJob("job-2")
		corruptResult("cafe01")

		recs, err := s.Jobs()
		if err != nil {
			t.Fatalf("listing with a torn record: %v", err)
		}
		var ids []string
		for _, r := range recs {
			ids = append(ids, r.ID)
		}
		sort.Strings(ids)
		if !reflect.DeepEqual(ids, []string{"job-1", "job-3"}) {
			t.Fatalf("listing with a torn record returned %v, want the two intact ones", ids)
		}
		if _, err := s.GetJob("job-2"); err == nil || errors.Is(err, ErrNotFound) {
			t.Fatalf("reading the torn record: %v, want a decode error", err)
		}
		if _, err := s.GetResult("cafe01"); err == nil || errors.Is(err, ErrNotFound) {
			t.Fatalf("reading the torn result: %v, want a decode error", err)
		}
	})
}

// Checkpoint blobs round-trip bytes exactly, list per hash, overwrite
// per slot, and delete as a group.
func TestCheckpointRoundTrip(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		if err := s.PutCheckpoint("h1", "0", []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if err := s.PutCheckpoint("h1", "1", []byte{4}); err != nil {
			t.Fatal(err)
		}
		if err := s.PutCheckpoint("h2", "0", []byte{9}); err != nil {
			t.Fatal(err)
		}
		got, err := s.GetCheckpoint("h1", "0")
		if err != nil || !reflect.DeepEqual(got, []byte{1, 2, 3}) {
			t.Fatalf("GetCheckpoint: %v, %v", got, err)
		}
		// Overwrite wins.
		if err := s.PutCheckpoint("h1", "0", []byte{7, 7}); err != nil {
			t.Fatal(err)
		}
		if got, _ = s.GetCheckpoint("h1", "0"); !reflect.DeepEqual(got, []byte{7, 7}) {
			t.Fatalf("overwrite lost: %v", got)
		}
		slots, err := s.Checkpoints("h1")
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(slots)
		if !reflect.DeepEqual(slots, []string{"0", "1"}) {
			t.Fatalf("Checkpoints(h1) = %v", slots)
		}
		if err := s.DeleteCheckpoints("h1"); err != nil {
			t.Fatal(err)
		}
		if slots, err = s.Checkpoints("h1"); err != nil || len(slots) != 0 {
			t.Fatalf("after delete: %v, %v", slots, err)
		}
		if _, err := s.GetCheckpoint("h1", "0"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted checkpoint: %v, want ErrNotFound", err)
		}
		// Other hashes untouched; unknown hashes list empty and delete as
		// a no-op.
		if _, err := s.GetCheckpoint("h2", "0"); err != nil {
			t.Fatal(err)
		}
		if slots, err = s.Checkpoints("nope"); err != nil || len(slots) != 0 {
			t.Fatalf("unknown hash: %v, %v", slots, err)
		}
		if err := s.DeleteCheckpoints("nope"); err != nil {
			t.Fatal(err)
		}
		// Key validation mirrors jobs/results.
		if err := s.PutCheckpoint("../evil", "0", nil); err == nil {
			t.Error("PutCheckpoint accepted a traversal hash")
		}
		if err := s.PutCheckpoint("h1", "../evil", nil); err == nil {
			t.Error("PutCheckpoint accepted a traversal slot")
		}
		if err := s.PutCheckpoint("h1", "", nil); err == nil {
			t.Error("PutCheckpoint accepted an empty slot")
		}
	})
}

// Shard records round-trip, overwrite per id, list sorted per job, and
// delete as a group together with their result blobs.
func TestShardRoundTrip(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		recs := []*ShardRecord{
			{ID: "v0-8-16", JobID: "job-1", Variant: 0, Lo: 8, Hi: 16, State: "queued"},
			{ID: "v0-0-8", JobID: "job-1", Variant: 0, Lo: 0, Hi: 8, State: "queued"},
			{ID: "v1-0-8", JobID: "job-1", Variant: 1, Lo: 0, Hi: 8, State: "leased", Attempts: 1},
			{ID: "v0-0-8", JobID: "job-2", Variant: 0, Lo: 0, Hi: 8, State: "queued"},
		}
		for _, rec := range recs {
			if err := s.PutShard(rec); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.Shards("job-1")
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, r := range got {
			ids = append(ids, r.ID)
		}
		if !reflect.DeepEqual(ids, []string{"v0-0-8", "v0-8-16", "v1-0-8"}) {
			t.Fatalf("Shards(job-1) order %v, want sorted ids", ids)
		}
		if got[2].State != "leased" || got[2].Attempts != 1 {
			t.Fatalf("record content lost: %+v", got[2])
		}
		// Overwrite wins.
		recs[0].State = "done"
		if err := s.PutShard(recs[0]); err != nil {
			t.Fatal(err)
		}
		got, _ = s.Shards("job-1")
		if got[1].State != "done" {
			t.Fatalf("overwrite lost: %+v", got[1])
		}

		// Result blobs round-trip bytes exactly and miss as ErrNotFound.
		if err := s.PutShardResult("job-1", "v0-0-8", []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		blob, err := s.GetShardResult("job-1", "v0-0-8")
		if err != nil || !reflect.DeepEqual(blob, []byte{1, 2, 3}) {
			t.Fatalf("GetShardResult: %v, %v", blob, err)
		}
		if _, err := s.GetShardResult("job-1", "v0-8-16"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing shard result: %v, want ErrNotFound", err)
		}

		// Delete removes records and blobs for the job only.
		if err := s.DeleteShards("job-1"); err != nil {
			t.Fatal(err)
		}
		if got, err = s.Shards("job-1"); err != nil || len(got) != 0 {
			t.Fatalf("after delete: %v, %v", got, err)
		}
		if _, err := s.GetShardResult("job-1", "v0-0-8"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted shard result: %v, want ErrNotFound", err)
		}
		if got, err = s.Shards("job-2"); err != nil || len(got) != 1 {
			t.Fatalf("other job's shards touched: %v, %v", got, err)
		}
		// Unknown jobs list empty and delete as a no-op.
		if got, err = s.Shards("job-404"); err != nil || len(got) != 0 {
			t.Fatalf("unknown job: %v, %v", got, err)
		}
		if err := s.DeleteShards("job-404"); err != nil {
			t.Fatal(err)
		}
		// Key validation mirrors the other families.
		if err := s.PutShard(&ShardRecord{ID: "../evil", JobID: "job-1"}); err == nil {
			t.Error("PutShard accepted a traversal id")
		}
		if err := s.PutShard(&ShardRecord{ID: "s1", JobID: ""}); err == nil {
			t.Error("PutShard accepted an empty job id")
		}
		if err := s.PutShardResult("job-1", "", nil); err == nil {
			t.Error("PutShardResult accepted an empty shard id")
		}
	})
}

// The fault wrapper fails exactly the mutation its hook names, leaves
// reads alone, and counts attempts.
func TestFaultyInjectsOnNthMutation(t *testing.T) {
	f := &Faulty{Inner: NewMem(), Hook: FailNth(2)}
	if err := f.PutJob(&JobRecord{ID: "job-1", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := f.PutJob(&JobRecord{ID: "job-2", State: "queued"}); !errors.Is(err, ErrInjected) {
		t.Fatalf("second mutation: %v, want ErrInjected", err)
	}
	// The failed write never reached the inner store.
	if _, err := f.GetJob("job-2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job-2 after injected failure: %v, want ErrNotFound", err)
	}
	if _, err := f.GetJob("job-1"); err != nil {
		t.Fatalf("read through fault wrapper: %v", err)
	}
	if err := f.PutCheckpoint("h1", "0", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if f.Mutations() != 3 {
		t.Fatalf("Mutations() = %d, want 3", f.Mutations())
	}

	byOp := &Faulty{Inner: NewMem(), Hook: FailOps("put-checkpoint", 0)}
	if err := byOp.PutJob(&JobRecord{ID: "job-1", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := byOp.PutCheckpoint("h1", "0", []byte{1}); !errors.Is(err, ErrInjected) {
		t.Fatalf("op-targeted injection: %v, want ErrInjected", err)
	}
}

// Leftover temp files from a crash mid-write are invisible to listings.
func TestFSIgnoresTempDebris(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(&JobRecord{ID: "job-1", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	debris := filepath.Join(dir, "jobs", ".tmp-crashed")
	if err := os.WriteFile(debris, []byte("{partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "job-1" {
		t.Fatalf("listing with debris: %+v", recs)
	}
}

// A shard record torn the same way is skipped by Shards on both
// backends, so one bad file cannot take down a coordinator's recovery.
func TestTornShardSkipped(t *testing.T) {
	openBothCorruptible(t, func(t *testing.T, s Store, _, _ func(string), corruptShard func(string, string)) {
		for _, id := range []string{"v0-0-8", "v0-8-16", "v1-0-8"} {
			if err := s.PutShard(&ShardRecord{ID: id, JobID: "job-1", State: "queued"}); err != nil {
				t.Fatal(err)
			}
		}
		corruptShard("job-1", "v0-8-16")
		recs, err := s.Shards("job-1")
		if err != nil {
			t.Fatalf("listing with a torn shard: %v", err)
		}
		var ids []string
		for _, r := range recs {
			ids = append(ids, r.ID)
		}
		if !reflect.DeepEqual(ids, []string{"v0-0-8", "v1-0-8"}) {
			t.Fatalf("listing with a torn shard returned %v, want the two intact ones", ids)
		}
	})
}

// Opaque blobs are values: neither the slice handed to a Put nor the one
// a Get returned aliases what the store holds.
func TestBlobsDoNotAlias(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		blobs := []struct {
			name string
			put  func([]byte) error
			get  func() ([]byte, error)
		}{
			{"checkpoint",
				func(b []byte) error { return s.PutCheckpoint("h1", "0", b) },
				func() ([]byte, error) { return s.GetCheckpoint("h1", "0") }},
			{"shard result",
				func(b []byte) error { return s.PutShardResult("job-1", "v0-0-8", b) },
				func() ([]byte, error) { return s.GetShardResult("job-1", "v0-0-8") }},
		}
		for _, b := range blobs {
			in := []byte{1, 2, 3}
			if err := b.put(in); err != nil {
				t.Fatal(err)
			}
			in[0] = 9
			got, err := b.get()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, []byte{1, 2, 3}) {
				t.Fatalf("%s: mutating the put slice changed the stored blob: %v", b.name, got)
			}
			got[1] = 9
			if again, _ := b.get(); !reflect.DeepEqual(again, []byte{1, 2, 3}) {
				t.Fatalf("%s: mutating a returned blob changed the stored one: %v", b.name, again)
			}
		}
	})
}

// The filesystem layout is a format: existing data directories must
// keep recovering. One record of each family lands at exactly these
// paths, and every JSON record holds exactly json.Marshal of the record.
func TestFSLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := &JobRecord{ID: "job-1", Seq: 1, Hash: "h1", State: "done", Submitted: 5, Request: json.RawMessage(`{"until":5}`)}
	res := &Result{Variants: []Variant{{Species: []string{"*"}, T: []float64{0, 0.5}, Mean: [][]float64{{1, 0.5}}, Std: [][]float64{{0, 0.1}}}}}
	shard := &ShardRecord{ID: "v0-0-8", JobID: "job-1", Hi: 8, State: "done"}
	for _, err := range []error{
		s.PutJob(job),
		s.PutResult("h1", res),
		s.PutCheckpoint("h1", "3", []byte{1, 2, 3}),
		s.PutShard(shard),
		s.PutShardResult("job-1", "v0-0-8", []byte{4, 5}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	marshal := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := map[string][]byte{
		"jobs/job-1.json":           marshal(job),
		"results/h1.json":           marshal(res),
		"checkpoints/h1/3":          {1, 2, 3},
		"shards/job-1/v0-0-8.json":  marshal(shard),
		"shardresults/job-1/v0-0-8": {4, 5},
	}
	got := map[string][]byte{}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		got[filepath.ToSlash(rel)] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("layout:\n got %q\nwant %q", got, want)
	}
}

// Creating a directory fsyncs its parent, so a new namespace's entry is
// as durable as the first file written into it: one parent sync per new
// directory, none when the directory already exists.
func TestFSSyncsNewDirectories(t *testing.T) {
	var synced []string
	defer func(orig func(string)) { syncDir = orig }(syncDir)
	syncDir = func(dir string) { synced = append(synced, dir) }
	count := func(dir string) int {
		n := 0
		for _, d := range synced {
			if d == dir {
				n++
			}
		}
		return n
	}

	root := filepath.Join(t.TempDir(), "data")
	s, err := OpenFS(root)
	if err != nil {
		t.Fatal(err)
	}
	if n := count(filepath.Dir(root)); n != 1 {
		t.Fatalf("OpenFS synced the parent of a new data directory %d times, want 1", n)
	}
	shards := filepath.Join(root, "shards")
	for i, id := range []string{"v0-0-8", "v0-8-16"} {
		if err := s.PutShard(&ShardRecord{ID: id, JobID: "job-1", State: "queued"}); err != nil {
			t.Fatal(err)
		}
		if n := count(root); n != 1 {
			t.Fatalf("put %d: data directory synced %d times for the new shards/ entry, want 1", i, n)
		}
		if n := count(shards); n != 1 {
			t.Fatalf("put %d: shards/ synced %d times for the new shards/job-1 entry, want 1", i, n)
		}
		if n := count(filepath.Join(shards, "job-1")); n != i+1 {
			t.Fatalf("put %d: shards/job-1 synced %d times, want one per rename", i, n)
		}
	}
	if err := s.PutShardResult("job-1", "v0-0-8", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if n := count(root); n != 2 {
		t.Fatalf("data directory synced %d times after shardresults/ was created, want 2", n)
	}
	if n := count(filepath.Join(root, "shardresults")); n != 1 {
		t.Fatalf("shardresults/ synced %d times for its new job directory, want 1", n)
	}

	// A reopened store finds the directories in place and syncs nothing.
	synced = nil
	if _, err := OpenFS(root); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 0 {
		t.Fatalf("reopening synced %v, want nothing", synced)
	}
}

// BenchmarkMemJob replays the store calls one small surfd job makes on
// the in-memory store: a cache miss, its queued, running and done
// records, the result, the checkpoint cleanup and a later cache hit.
func BenchmarkMemJob(b *testing.B) {
	s := NewMem()
	res := &Result{Variants: []Variant{{
		Species: []string{"*", "CO", "O"},
		T:       []float64{0, 0.05, 0.1},
		Mean:    [][]float64{{1, 0.5, 0.4}, {0, 0.25, 0.3}, {0, 0.25, 0.3}},
		Std:     [][]float64{{0, 0.01, 0.02}, {0, 0.01, 0.02}, {0, 0.01, 0.02}},
	}}}
	rec := &JobRecord{ID: "job-1", Seq: 1, Hash: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		Submitted: 1, Request: json.RawMessage(`{"specs":[{"model":"zgb"}],"replicas":2,"until":0.1}`)}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		rec.ID = "job-" + strconv.Itoa(i)
		s.GetResult(rec.Hash + "x")
		for _, state := range []string{"queued", "running", "done"} {
			rec.State = state
			if err := s.PutJob(rec); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.PutResult(rec.Hash, res); err != nil {
			b.Fatal(err)
		}
		if err := s.DeleteCheckpoints(rec.Hash); err != nil {
			b.Fatal(err)
		}
		if _, err := s.GetResult(rec.Hash); err != nil {
			b.Fatal(err)
		}
	}
}
