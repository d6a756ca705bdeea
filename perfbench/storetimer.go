package main

import (
	"encoding/json"
	"sync"
	"time"

	"parsurf/internal/store"
)

// timedStore is a store.Store decorator that times the calls the
// per-layer metrics report (storeMethods) and counts the payload bytes
// of every successful Put. It forwards each method to the wrapped store
// unchanged and returns its errors untouched, so
// errors.Is(err, store.ErrNotFound) still holds.
type timedStore struct {
	st store.Store

	mu    sync.Mutex
	ms    map[string][]float64 // method → call durations in ms
	bytes int64                // payload bytes of successful Put calls
}

func newTimedStore(st store.Store) *timedStore {
	return &timedStore{st: st, ms: make(map[string][]float64)}
}

// observe records one call of method that started at start and, when
// it succeeded, wrote n payload bytes.
func (t *timedStore) observe(method string, start time.Time, n int, err error) {
	d := float64(time.Since(start)) / 1e6
	t.mu.Lock()
	t.ms[method] = append(t.ms[method], d)
	t.mu.Unlock()
	t.wrote(n, err)
}

// wrote counts n payload bytes of a Put that returned err.
func (t *timedStore) wrote(n int, err error) {
	if err != nil {
		return
	}
	t.mu.Lock()
	t.bytes += int64(n)
	t.mu.Unlock()
}

// reset discards everything recorded so far.
func (t *timedStore) reset() {
	t.mu.Lock()
	t.ms = make(map[string][]float64)
	t.bytes = 0
	t.mu.Unlock()
}

// snapshot returns a copy of the per-method durations and the bytes
// written so far.
func (t *timedStore) snapshot() (map[string][]float64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]float64, len(t.ms))
	for k, v := range t.ms {
		out[k] = append([]float64(nil), v...)
	}
	return out, t.bytes
}

// jsonLen is the size of v's JSON encoding, the form the filesystem
// store writes records in.
func jsonLen(v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return len(b)
}

func (t *timedStore) PutJob(rec *store.JobRecord) error {
	start := time.Now()
	err := t.st.PutJob(rec)
	t.observe("put_job", start, jsonLen(rec), err)
	return err
}

func (t *timedStore) GetJob(id string) (*store.JobRecord, error) { return t.st.GetJob(id) }

func (t *timedStore) Jobs() ([]*store.JobRecord, error) { return t.st.Jobs() }

func (t *timedStore) PutResult(hash string, res *store.Result) error {
	start := time.Now()
	err := t.st.PutResult(hash, res)
	t.observe("put_result", start, jsonLen(res), err)
	return err
}

func (t *timedStore) GetResult(hash string) (*store.Result, error) {
	start := time.Now()
	res, err := t.st.GetResult(hash)
	t.observe("get_result", start, 0, nil)
	return res, err
}

func (t *timedStore) PutCheckpoint(hash, slot string, data []byte) error {
	err := t.st.PutCheckpoint(hash, slot, data)
	t.wrote(len(data), err)
	return err
}

func (t *timedStore) GetCheckpoint(hash, slot string) ([]byte, error) {
	return t.st.GetCheckpoint(hash, slot)
}

func (t *timedStore) Checkpoints(hash string) ([]string, error) { return t.st.Checkpoints(hash) }

func (t *timedStore) DeleteCheckpoints(hash string) error { return t.st.DeleteCheckpoints(hash) }

func (t *timedStore) PutShard(rec *store.ShardRecord) error {
	start := time.Now()
	err := t.st.PutShard(rec)
	t.observe("put_shard", start, jsonLen(rec), err)
	return err
}

func (t *timedStore) Shards(jobID string) ([]*store.ShardRecord, error) { return t.st.Shards(jobID) }

func (t *timedStore) PutShardResult(jobID, shardID string, data []byte) error {
	start := time.Now()
	err := t.st.PutShardResult(jobID, shardID, data)
	t.observe("put_shard_result", start, len(data), err)
	return err
}

func (t *timedStore) GetShardResult(jobID, shardID string) ([]byte, error) {
	return t.st.GetShardResult(jobID, shardID)
}

func (t *timedStore) DeleteShards(jobID string) error { return t.st.DeleteShards(jobID) }
