package store

import (
	"errors"
	"sync"
)

// ErrInjected is the error a Faulty store's hooks return to simulate a
// failed write. Match with errors.Is.
var ErrInjected = errors.New("store: injected fault")

// Faulty wraps a Store and injects failures into its mutating
// operations, for crash and torn-write tests. Before each mutation it
// calls Hook with the 1-based running mutation count and an operation
// tag ("put-job", "put-result", "put-checkpoint", "delete-checkpoints",
// "put-shard", "put-shard-result", "delete-shards");
// a non-nil return aborts the operation with that error before the
// inner store sees it — modelling a crash between the caller's decision
// to persist and the bytes reaching disk. Reads always pass through.
//
// The zero Hook injects nothing, so a Faulty with only Inner set is a
// transparent proxy whose Mutations count still advances.
type Faulty struct {
	Inner Store
	Hook  func(n int, op string) error

	mu sync.Mutex
	n  int
}

// FailNth returns a hook that fails exactly the nth mutation (1-based)
// with ErrInjected and lets every other one through.
func FailNth(n int) func(int, string) error {
	return func(got int, _ string) error {
		if got == n {
			return ErrInjected
		}
		return nil
	}
}

// FailOps returns a hook that fails every mutation with the given
// operation tag once at least skip earlier mutations have happened.
func FailOps(op string, skip int) func(int, string) error {
	return func(n int, got string) error {
		if got == op && n > skip {
			return ErrInjected
		}
		return nil
	}
}

// Mutations reports how many mutating operations have been attempted.
func (f *Faulty) Mutations() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// mutate counts one mutation and runs it unless Hook fails it.
func (f *Faulty) mutate(op string, run func() error) error {
	f.mu.Lock()
	f.n++
	n, hook := f.n, f.Hook
	f.mu.Unlock()
	if hook != nil {
		if err := hook(n, op); err != nil {
			return err
		}
	}
	return run()
}

// PutJob implements Store.
func (f *Faulty) PutJob(rec *JobRecord) error {
	return f.mutate("put-job", func() error { return f.Inner.PutJob(rec) })
}

// GetJob implements Store.
func (f *Faulty) GetJob(id string) (*JobRecord, error) { return f.Inner.GetJob(id) }

// Jobs implements Store.
func (f *Faulty) Jobs() ([]*JobRecord, error) { return f.Inner.Jobs() }

// PutResult implements Store.
func (f *Faulty) PutResult(hash string, res *Result) error {
	return f.mutate("put-result", func() error { return f.Inner.PutResult(hash, res) })
}

// GetResult implements Store.
func (f *Faulty) GetResult(hash string) (*Result, error) { return f.Inner.GetResult(hash) }

// PutCheckpoint implements Store.
func (f *Faulty) PutCheckpoint(hash, slot string, data []byte) error {
	return f.mutate("put-checkpoint", func() error { return f.Inner.PutCheckpoint(hash, slot, data) })
}

// GetCheckpoint implements Store.
func (f *Faulty) GetCheckpoint(hash, slot string) ([]byte, error) {
	return f.Inner.GetCheckpoint(hash, slot)
}

// Checkpoints implements Store.
func (f *Faulty) Checkpoints(hash string) ([]string, error) { return f.Inner.Checkpoints(hash) }

// DeleteCheckpoints implements Store.
func (f *Faulty) DeleteCheckpoints(hash string) error {
	return f.mutate("delete-checkpoints", func() error { return f.Inner.DeleteCheckpoints(hash) })
}

// PutShard implements Store.
func (f *Faulty) PutShard(rec *ShardRecord) error {
	return f.mutate("put-shard", func() error { return f.Inner.PutShard(rec) })
}

// Shards implements Store.
func (f *Faulty) Shards(jobID string) ([]*ShardRecord, error) { return f.Inner.Shards(jobID) }

// PutShardResult implements Store.
func (f *Faulty) PutShardResult(jobID, shardID string, data []byte) error {
	return f.mutate("put-shard-result", func() error { return f.Inner.PutShardResult(jobID, shardID, data) })
}

// GetShardResult implements Store.
func (f *Faulty) GetShardResult(jobID, shardID string) ([]byte, error) {
	return f.Inner.GetShardResult(jobID, shardID)
}

// DeleteShards implements Store.
func (f *Faulty) DeleteShards(jobID string) error {
	return f.mutate("delete-shards", func() error { return f.Inner.DeleteShards(jobID) })
}
