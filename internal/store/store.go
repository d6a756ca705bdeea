// Package store persists surfd jobs and results: a content-addressed
// job/result store behind a small interface, with a durable filesystem
// implementation (FS: atomic rename writes, fsync'd files and
// directories) and an in-memory one (Mem: no durability, the same
// serialization) that tests and the in-memory benchmark service use.
//
// Job records are keyed by job id and carry the serialized request, so
// a restart can rebuild the manager's job table and re-queue work that
// was interrupted. Result blobs are keyed by the SHA-256 content hash
// of the canonical (spec, run-shape) bytes — the spec's byte-fixed-point
// JSON marshal makes identical workloads hash identically — so the same
// key space doubles as a result cache: a resubmission whose hash matches
// a stored result is served without re-simulating.
//
// FS and Mem share one record layer (records: key validation, the JSON
// codec for job, result and shard records, the listing rules) over a
// blob backend of four operations on namespaced byte blobs — put, get,
// list and drop — which is all each of them implements.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path"
)

// ErrNotFound reports a missing record or blob. Match with
// errors.Is.
var ErrNotFound = errors.New("store: not found")

// JobRecord is the persisted form of one submitted job: identity,
// lifecycle state, and the serialized request needed to re-run it.
type JobRecord struct {
	// ID is the manager-assigned job id ("job-7").
	ID string `json:"id"`
	// Seq is the numeric submission sequence; restarts resume ids past
	// the highest stored Seq, and listings order by (Submitted, Seq).
	Seq int `json:"seq"`
	// Hash is the content address of the job's (spec, run-shape) bytes;
	// the result blob of a completed job lives under this key.
	Hash string `json:"hash,omitempty"`
	// State is the persisted lifecycle state. A record left at
	// "queued"/"running" by a crash is re-queued on recovery.
	State string `json:"state"`
	// Error is the terminal error text of a failed/cancelled job.
	Error string `json:"error,omitempty"`
	// Cached marks a job answered from the result cache without running.
	Cached bool `json:"cached,omitempty"`
	// Attempts counts how many times the job's run was interrupted by a
	// crash (a record found at "running" on boot). Recovery uses it to
	// quarantine jobs that keep killing the process.
	Attempts int `json:"attempts,omitempty"`
	// Submitted is the submission wall-clock time in Unix nanoseconds.
	Submitted int64 `json:"submitted"`
	// Deadline is the absolute wall-clock deadline (Unix nanoseconds) a
	// running job's sweep must finish by, set when the job first starts
	// and zero for jobs without a duration budget. Recovery keeps the
	// absolute time, so a crash-restarted job honors only its remaining
	// budget instead of getting a fresh one.
	Deadline int64 `json:"deadline,omitempty"`
	// Request is the serialized request (specs plus run shape), exactly
	// what recovery re-queues.
	Request json.RawMessage `json:"request,omitempty"`
}

// ShardRecord is the persisted form of one fleet shard: a (variant,
// replica-range) slice of a job's ensemble with its lease lifecycle.
// The coordinator writes the record ahead of every state transition —
// the same write-ahead discipline as job records — so a restarted
// coordinator rebuilds the shard table exactly: shards recorded done
// re-commit their stored result blobs instead of re-running, everything
// else re-queues.
type ShardRecord struct {
	// ID is the shard id, unique within its job (e.g. "v0-8-16").
	ID string `json:"id"`
	// JobID is the owning job.
	JobID string `json:"jobId"`
	// Variant is the sweep variant (spec index) the shard belongs to.
	Variant int `json:"variant"`
	// Lo and Hi bound the half-open replica index range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// State is the shard lifecycle state (queued/leased/done/
	// quarantined). Leases are transient: a record found "leased" on
	// recovery re-queues like a "queued" one.
	State string `json:"state"`
	// Worker names the worker holding the shard's lease, while leased.
	Worker string `json:"worker,omitempty"`
	// Attempts counts leases that ended in failure or expiry; a shard
	// past the coordinator's MaxAttempts is quarantined as poison.
	Attempts int `json:"attempts,omitempty"`
	// Requeues counts how many times the shard went back on the queue.
	Requeues int `json:"requeues,omitempty"`
	// Error is the latest failure text reported for the shard.
	Error string `json:"error,omitempty"`
}

// Variant is one variant's merged series in a Result — the same shape
// the HTTP result endpoint serves.
type Variant struct {
	// Species are the column labels, index-aligned with Mean/Std rows.
	Species []string `json:"species"`
	// T is the shared time grid.
	T []float64 `json:"t"`
	// Mean and Std are per-species rows over the grid.
	Mean [][]float64 `json:"mean"`
	Std  [][]float64 `json:"std"`
}

// Result is a completed job's merged output, one entry per sweep
// variant. Values are plain float64 series: JSON round-trips them
// bit-exactly (Go encodes the shortest representation that parses back
// to the same float64), so a result served from disk is byte-identical
// to the one served at completion time.
type Result struct {
	Variants []Variant `json:"variants"`
}

// Store persists job records and result blobs. Implementations must be
// safe for concurrent use. Get methods return ErrNotFound (wrapped) for
// missing keys; Put methods overwrite.
type Store interface {
	// PutJob writes (or overwrites) a job record.
	PutJob(rec *JobRecord) error
	// GetJob reads the record with the given id.
	GetJob(id string) (*JobRecord, error)
	// Jobs lists every stored record, in no particular order.
	Jobs() ([]*JobRecord, error)
	// PutResult writes (or overwrites) the result blob under the hash.
	PutResult(hash string, res *Result) error
	// GetResult reads the result blob under the hash.
	GetResult(hash string) (*Result, error)
	// PutCheckpoint writes (or overwrites) an opaque checkpoint blob for
	// one replica slot of the job with the given content hash.
	PutCheckpoint(hash, slot string, data []byte) error
	// GetCheckpoint reads one checkpoint blob.
	GetCheckpoint(hash, slot string) ([]byte, error)
	// Checkpoints lists the slot keys with a stored checkpoint for the
	// hash, in no particular order. A hash with no checkpoints lists
	// empty without error.
	Checkpoints(hash string) ([]string, error)
	// DeleteCheckpoints removes every checkpoint stored for the hash.
	// Deleting a hash with no checkpoints is a no-op.
	DeleteCheckpoints(hash string) error
	// PutShard writes (or overwrites) a fleet shard record, keyed
	// (JobID, ID).
	PutShard(rec *ShardRecord) error
	// Shards lists the stored shard records of a job, skipping records
	// that no longer decode; a job with no shards lists empty without
	// error. Listings come back in lexical shard-id order from every
	// implementation.
	Shards(jobID string) ([]*ShardRecord, error)
	// PutShardResult writes (or overwrites) the opaque wire-format
	// result blob of one shard.
	PutShardResult(jobID, shardID string, data []byte) error
	// GetShardResult reads one shard result blob.
	GetShardResult(jobID, shardID string) ([]byte, error)
	// DeleteShards removes every shard record and shard result blob
	// stored for the job. Deleting a job with no shards is a no-op.
	DeleteShards(jobID string) error
}

// validKey guards record/blob keys used as file names: a key must be
// non-empty, not start with a dot, and contain only [A-Za-z0-9._-], so
// no key can escape the store directory or collide with temp files.
func validKey(kind, key string) error {
	if key == "" {
		return fmt.Errorf("store: empty %s key", kind)
	}
	if key[0] == '.' {
		return fmt.Errorf("store: %s key %q starts with a dot", kind, key)
	}
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("store: %s key %q contains %q", kind, key, c)
		}
	}
	return nil
}

// family is one of the five record families: its directory, its file
// extension, and what its keys are called in errors. A grouped family
// (group != "") keeps one subdirectory per group key: per content hash
// for checkpoints, per job for shards. The record layer owns the
// families, so it alone decides the on-disk layout.
type family struct{ dir, ext, kind, group string }

var (
	jobs         = &family{dir: "jobs", ext: ".json", kind: "job"}
	results      = &family{dir: "results", ext: ".json", kind: "result"}
	checkpoints  = &family{dir: "checkpoints", kind: "checkpoint slot", group: "checkpoint hash"}
	shards       = &family{dir: "shards", ext: ".json", kind: "shard", group: "shard job"}
	shardResults = &family{dir: "shardresults", kind: "shard", group: "shard job"}
)

// space is one namespace of the blob backend: a flat family, or one
// group (sub) of a grouped family. A blob in it is the file
// <dir>/[<sub>/]<key><ext>.
type space struct {
	*family
	sub string
}

// check validates the group key of a grouped space and the given blob
// keys in it.
func (sp space) check(keys ...string) error {
	if sp.group != "" {
		if err := validKey(sp.group, sp.sub); err != nil {
			return err
		}
	}
	for _, key := range keys {
		if err := validKey(sp.kind, key); err != nil {
			return err
		}
	}
	return nil
}

// wrap puts the error of an operation on key (or, for "", on the whole
// space) in context. It allocates only for an error, and builds the
// message only when it is read.
func (sp space) wrap(op, key string, err error) error {
	if err == nil {
		return nil
	}
	return &keyError{op, sp, key, err}
}

type keyError struct {
	op  string
	sp  space
	key string
	err error
}

func (e *keyError) Error() string {
	return "store: " + e.op + " " + path.Join(e.sp.dir, e.sp.sub, e.key) + ": " + e.err.Error()
}

func (e *keyError) Unwrap() error { return e.err }

// backend is the blob layer under records. Implementations must be
// safe for concurrent use.
type backend interface {
	// put atomically replaces the blob under key, creating the space if
	// needed. It may keep data, which the caller must not modify after.
	put(sp space, key string, data []byte) error
	// get returns the blob under key, not to be modified, or ErrNotFound.
	get(sp space, key string) ([]byte, error)
	// list returns the space's keys in lexical order, none if it is missing.
	list(sp space) ([]string, error)
	// drop removes the space and its blobs; a missing space is a no-op.
	drop(sp space) error
}

// records implements Store over a backend; FS and Mem get every Store
// method by embedding it.
type records struct{ b backend }

// PutJob implements Store.
func (r records) PutJob(rec *JobRecord) error { return r.putJSON(space{jobs, ""}, rec.ID, rec) }

// GetJob implements Store.
func (r records) GetJob(id string) (*JobRecord, error) {
	return getJSON[JobRecord](r, space{jobs, ""}, id)
}

// Jobs implements Store, in lexical id order. A record that no longer
// reads or decodes — e.g. a file torn by a crash that bypassed the
// atomic-rename path — is skipped rather than failing the whole
// listing, so one bad file cannot take down boot recovery; GetJob on
// the bad id still reports the decode error.
func (r records) Jobs() ([]*JobRecord, error) { return listJSON[JobRecord](r, space{jobs, ""}) }

// PutResult implements Store.
func (r records) PutResult(hash string, res *Result) error {
	return r.putJSON(space{results, ""}, hash, res)
}

// GetResult implements Store.
func (r records) GetResult(hash string) (*Result, error) {
	return getJSON[Result](r, space{results, ""}, hash)
}

// PutCheckpoint implements Store.
func (r records) PutCheckpoint(hash, slot string, data []byte) error {
	return r.save(space{checkpoints, hash}, slot, bytes.Clone(data))
}

// GetCheckpoint implements Store.
func (r records) GetCheckpoint(hash, slot string) ([]byte, error) {
	data, err := r.load(space{checkpoints, hash}, slot)
	return bytes.Clone(data), err
}

// Checkpoints implements Store, in lexical slot order.
func (r records) Checkpoints(hash string) ([]string, error) {
	return r.keys(space{checkpoints, hash})
}

// DeleteCheckpoints implements Store.
func (r records) DeleteCheckpoints(hash string) error { return r.remove(space{checkpoints, hash}) }

// PutShard implements Store.
func (r records) PutShard(rec *ShardRecord) error {
	return r.putJSON(space{shards, rec.JobID}, rec.ID, rec)
}

// Shards implements Store. Like Jobs it skips records that no longer
// decode, so one torn file cannot take down a coordinator's recovery.
func (r records) Shards(jobID string) ([]*ShardRecord, error) {
	return listJSON[ShardRecord](r, space{shards, jobID})
}

// PutShardResult implements Store.
func (r records) PutShardResult(jobID, shardID string, data []byte) error {
	return r.save(space{shardResults, jobID}, shardID, bytes.Clone(data))
}

// GetShardResult implements Store.
func (r records) GetShardResult(jobID, shardID string) ([]byte, error) {
	data, err := r.load(space{shardResults, jobID}, shardID)
	return bytes.Clone(data), err
}

// DeleteShards implements Store.
func (r records) DeleteShards(jobID string) error {
	if err := r.remove(space{shards, jobID}); err != nil {
		return err
	}
	return r.remove(space{shardResults, jobID})
}

// putJSON stores the JSON encoding of v under key.
func (r records) putJSON(sp space, key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return sp.wrap("encoding", key, err)
	}
	return r.save(sp, key, data)
}

// getJSON decodes the record stored under key.
func getJSON[T any](r records, sp space, key string) (*T, error) {
	data, err := r.load(sp, key)
	if err != nil {
		return nil, err
	}
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		return nil, sp.wrap("decoding", key, err)
	}
	return v, nil
}

// save stores data, which the backend may keep, under key.
func (r records) save(sp space, key string, data []byte) error {
	if err := sp.check(key); err != nil {
		return err
	}
	return sp.wrap("writing", key, r.b.put(sp, key, data))
}

// load returns the blob under key, which the caller must not modify.
func (r records) load(sp space, key string) ([]byte, error) {
	if err := sp.check(key); err != nil {
		return nil, err
	}
	data, err := r.b.get(sp, key)
	return data, sp.wrap("reading", key, err)
}

// keys returns the keys in the space that a Get could name: leftover
// temp files (dot-files) and anything else that is not a valid key are
// skipped.
func (r records) keys(sp space) ([]string, error) {
	if err := sp.check(); err != nil {
		return nil, err
	}
	all, err := r.b.list(sp)
	out := all[:0]
	for _, k := range all {
		if validKey(sp.kind, k) == nil {
			out = append(out, k)
		}
	}
	return out, sp.wrap("listing", "", err)
}

// listJSON decodes every record in the space in key order, skipping
// the ones that no longer read or decode.
func listJSON[T any](r records, sp space) ([]*T, error) {
	keys, err := r.keys(sp)
	var out []*T
	for _, k := range keys {
		if v, err := getJSON[T](r, sp, k); err == nil {
			out = append(out, v)
		}
	}
	return out, err
}

// remove drops the space and every blob in it.
func (r records) remove(sp space) error {
	if err := sp.check(); err != nil {
		return err
	}
	return sp.wrap("deleting", "", r.b.drop(sp))
}
