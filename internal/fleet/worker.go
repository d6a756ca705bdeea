package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"parsurf"
	"parsurf/internal/backoff"
	"parsurf/internal/job"
	"parsurf/internal/store"
)

// defaultClient is the worker's fallback HTTP client. Unlike
// http.DefaultClient it carries a timeout, so a wedged coordinator (or
// a black-holed connection) surfaces as a retryable error instead of
// parking the lease loop forever. Generous on purpose: the slowest
// call is a shard-result upload, which may move real data.
var defaultClient = &http.Client{Timeout: 2 * time.Minute}

// Worker is a fleet worker node: a lease → run → upload loop against a
// coordinator. Each leased shard runs through the same pooled
// zero-rebuild replica path a local surfd uses (parsurf.RunReplicaRange
// with absolute replica indices), so the rows it uploads are the exact
// rows a single-node run computes. A worker given a local store
// snapshots its running replicas mid-shard and resumes them after a
// restart, exactly like the single-node checkpoint machinery.
type Worker struct {
	// ID names the worker in leases and heartbeats.
	ID string
	// Coordinator is the coordinator's base URL ("http://host:8080").
	Coordinator string
	// Workers is the replica-goroutine count per shard (min 1).
	Workers int
	// Poll is the idle re-lease period (default 500ms): each lease call
	// lets the coordinator hold it up to Poll until a shard is queued,
	// and an empty answer is followed by a sleep for the rest of Poll,
	// so an idle worker makes one lease call per Poll. Poll is also the
	// base of the backoff against an unreachable coordinator.
	Poll time.Duration
	// Store, when set, holds mid-shard replica checkpoints keyed by
	// (job hash, shard), written at most every CheckpointEvery.
	Store store.Store
	// CheckpointEvery rate-limits mid-shard snapshots (0 disables).
	CheckpointEvery time.Duration
	// Client is the HTTP client (default: a shared client with a
	// 2-minute timeout — never the timeout-less http.DefaultClient).
	Client *http.Client
	// Logf, when set, receives worker progress lines.
	Logf func(format string, args ...any)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return defaultClient
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 500 * time.Millisecond
}

// retryPolicy is the worker's shared jittered-backoff schedule,
// growing from its poll interval to max: decorrelated, so a fleet
// retrying against one restarting coordinator trickles back instead of
// arriving as a synchronized thundering herd.
func (w *Worker) retryPolicy(max time.Duration) backoff.Policy {
	return backoff.Policy{Base: w.poll(), Max: max, Jitter: true}
}

// Run leases and executes shards until ctx is cancelled. Errors inside
// a shard are reported to the coordinator and the loop continues; only
// cancellation ends it. An unreachable coordinator degrades the loop
// to jittered exponential-backoff polling (reset by the next
// successful lease call), so workers ride out coordinator restarts.
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" || w.Coordinator == "" {
		return fmt.Errorf("fleet: worker needs an ID and a coordinator URL")
	}
	if w.Workers < 1 {
		w.Workers = 1
	}
	retry := w.retryPolicy(30 * time.Second)
	fails := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		start := time.Now()
		grant, ok, err := w.lease(ctx)
		switch {
		case err != nil:
			w.logf("worker %s: lease: %v", w.ID, err)
			if !retry.Sleep(fails, ctx.Done()) {
				return nil
			}
			fails++
		case !ok:
			// Reached but idle: no backoff. The coordinator held the
			// call for up to Poll; sleep out the rest of it, which also
			// keeps a coordinator that answers at once from driving a
			// tight loop.
			fails = 0
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(w.poll() - time.Since(start)):
			}
		default:
			fails = 0
			w.runShard(ctx, grant)
		}
	}
}

// lease asks the coordinator for one shard, letting it hold the call
// for up to Poll while nothing is queued.
func (w *Worker) lease(ctx context.Context) (*Grant, bool, error) {
	body, _ := json.Marshal(leaseRequest{Worker: w.ID, WaitMs: w.poll().Milliseconds()})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.Coordinator+"/fleet/lease", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, false, nil
	case http.StatusOK:
		grant := new(Grant)
		if err := json.NewDecoder(resp.Body).Decode(grant); err != nil {
			return nil, false, err
		}
		return grant, true, nil
	default:
		return nil, false, fmt.Errorf("fleet: lease: coordinator answered %s", resp.Status)
	}
}

// post sends a JSON body and discards the response body, returning the
// status code.
func (w *Worker) post(ctx context.Context, path string, v any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// ckptKey derives the worker-local checkpoint key of a shard: job hash
// prefix plus the global shard id, so resumable state is scoped to
// exactly one (job, shard) and DeleteCheckpoints after upload removes
// exactly that.
func ckptKey(grant *Grant) string {
	if grant.Hash == "" || grant.Shard == "" {
		return ""
	}
	h := grant.Hash
	if len(h) > 12 {
		h = h[:12]
	}
	// The global id's dot is a valid store key character, so the key
	// needs no escaping.
	return h + "-" + grant.Shard
}

// runShard executes one leased shard: heartbeats inside the TTL while
// the replicas run, uploads the wire payload on success, reports the
// failure otherwise. A 410 from any call abandons the shard (the
// coordinator moved on); worker-local checkpoints survive an abandon —
// a future lease of the same shard resumes from them.
func (w *Worker) runShard(ctx context.Context, grant *Grant) {
	spec, err := parsurf.ParseSpec(grant.Spec)
	if err != nil {
		w.fail(ctx, grant, fmt.Sprintf("parsing spec: %v", err))
		return
	}
	n := grant.Hi - grant.Lo
	if n <= 0 {
		w.fail(ctx, grant, fmt.Sprintf("empty replica range [%d, %d)", grant.Lo, grant.Hi))
		return
	}
	grid, err := parsurf.NewTimeGrid(grant.Until, grant.Every)
	if err != nil {
		w.fail(ctx, grant, fmt.Sprintf("grid: %v", err))
		return
	}

	// Per-replica progress slots, written by the replica goroutines at
	// grid points and drained by the heartbeat loop.
	steps := make([]atomic.Uint64, n)
	times := make([]atomic.Uint64, n) // Float64bits
	shardCtx, cancelShard := context.WithCancel(ctx)
	defer cancelShard()

	hbDone := make(chan struct{})
	go w.heartbeats(shardCtx, cancelShard, grant, steps, times, hbDone)

	opts := []parsurf.EnsembleOption{
		parsurf.ObserveReplicas(func(variant, replica int, t float64, sess *parsurf.Session) {
			k := replica - grant.Lo
			eng := sess.Engine()
			steps[k].Store(eng.Steps())
			times[k].Store(math.Float64bits(eng.Time()))
		}),
	}
	key := ckptKey(grant)
	if w.Store != nil && w.CheckpointEvery > 0 && key != "" {
		opts = append(opts, parsurf.CheckpointReplicas(w.checkpointHook(key, grant)))
		if rp := w.resumeProvider(key, grant, spec, grid.Len(), steps, times); rp != nil {
			opts = append(opts, parsurf.ResumeReplicas(rp))
		}
	}

	w.logf("worker %s: running %s (variant %d replicas [%d, %d))",
		w.ID, grant.Shard, grant.Variant, grant.Lo, grant.Hi)
	rows, err := parsurf.RunReplicaRange(shardCtx, spec, grant.Variant, grant.Lo, grant.Hi,
		w.Workers, grant.Until, grant.Every, opts...)
	cancelShard()
	<-hbDone
	if err != nil {
		if ctx.Err() != nil || shardCtx.Err() != nil {
			// Shutdown or lost lease: abandon quietly, keeping local
			// checkpoints for a future lease of this shard.
			w.logf("worker %s: abandoning %s: %v", w.ID, grant.Shard, err)
			return
		}
		w.fail(ctx, grant, err.Error())
		return
	}

	res := &ShardResult{
		Variant: grant.Variant,
		Lo:      grant.Lo,
		Hi:      grant.Hi,
		Rows:    rows,
		Steps:   make([]uint64, n),
		Times:   make([]float64, n),
	}
	for k := 0; k < n; k++ {
		res.Steps[k] = steps[k].Load()
		res.Times[k] = math.Float64frombits(times[k].Load())
	}
	data, err := encodeShardResult(res)
	if err != nil {
		w.fail(ctx, grant, fmt.Sprintf("encoding result: %v", err))
		return
	}
	if w.upload(ctx, grant, data) && w.Store != nil && key != "" {
		_ = w.Store.DeleteCheckpoints(key)
	}
}

// heartbeats renews the lease every third of its TTL, carrying the
// replicas' progress counters. A 410 cancels the shard run — the
// coordinator gave the shard to someone else (or finished the job).
func (w *Worker) heartbeats(ctx context.Context, cancel context.CancelFunc, grant *Grant,
	steps, times []atomic.Uint64, done chan<- struct{}) {
	defer close(done)
	interval := time.Duration(grant.LeaseMillis) * time.Millisecond / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		hb := heartbeatRequest{Worker: w.ID, Replicas: make([]ReplicaProgress, len(steps))}
		for k := range steps {
			hb.Replicas[k] = ReplicaProgress{
				Replica: grant.Lo + k,
				Steps:   steps[k].Load(),
				Time:    math.Float64frombits(times[k].Load()),
			}
		}
		// A transient send failure gets a couple of quick jittered
		// retries inside this tick — a blip should not cost a whole
		// renewal interval of lease budget. Still unreachable after
		// that: keep running — the lease may expire, in which case a
		// later heartbeat gets the 410.
		hbRetry := w.retryPolicy(interval / 2)
		var code int
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if code, err = w.post(ctx, "/fleet/shards/"+grant.Shard+"/heartbeat", hb); err == nil {
				break
			}
			if !hbRetry.Sleep(attempt, ctx.Done()) {
				return
			}
		}
		if err != nil {
			continue
		}
		if code == http.StatusGone {
			w.logf("worker %s: lease on %s gone", w.ID, grant.Shard)
			cancel()
			return
		}
	}
}

// upload posts the shard payload, retrying transient failures a few
// times under the shared jittered backoff. True means the coordinator
// accepted (or already had) the result.
func (w *Worker) upload(ctx context.Context, grant *Grant, data []byte) bool {
	url := w.Coordinator + "/fleet/shards/" + grant.Shard + "/result?worker=" + w.ID
	retry := w.retryPolicy(5 * time.Second)
	for attempt := 0; attempt < 3; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
		if err != nil {
			return false
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := w.client().Do(req)
		if err != nil {
			if !retry.Sleep(attempt, ctx.Done()) {
				return false
			}
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			w.logf("worker %s: delivered %s", w.ID, grant.Shard)
			return true
		case http.StatusGone:
			w.logf("worker %s: result for %s refused: job gone", w.ID, grant.Shard)
			return false
		default:
			w.logf("worker %s: result for %s rejected: %s %s", w.ID, grant.Shard, resp.Status, body)
			return false
		}
	}
	return false
}

// fail reports a shard failure to the coordinator (best-effort).
func (w *Worker) fail(ctx context.Context, grant *Grant, reason string) {
	w.logf("worker %s: shard %s failed: %s", w.ID, grant.Shard, reason)
	_, _ = w.post(ctx, "/fleet/shards/"+grant.Shard+"/fail", failRequest{Worker: w.ID, Error: reason})
}

// checkpointHook is the worker-side parsurf.ReplicaCheckpoint: the
// same rate-limited snapshot discipline as the single-node manager,
// keyed in the worker's local store. Each replica's lastSnap entry is
// touched only by its own goroutine.
func (w *Worker) checkpointHook(key string, grant *Grant) parsurf.ReplicaCheckpoint {
	last := make([]time.Time, grant.Hi-grant.Lo)
	now := time.Now()
	for i := range last {
		last[i] = now
	}
	return func(variant, replica, k int, sess *parsurf.Session, values [][]float64) {
		slot := replica - grant.Lo
		if slot < 0 || slot >= len(last) || time.Since(last[slot]) < w.CheckpointEvery {
			return
		}
		last[slot] = time.Now()
		blob, err := job.EncodeReplicaCheckpoint(variant, replica, k+1, sess, values)
		if err != nil {
			return
		}
		_ = w.Store.PutCheckpoint(key, strconv.Itoa(replica), blob)
	}
}

// resumeProvider loads whatever mid-shard snapshots the local store
// holds under the shard's key, validating each lazily like the
// single-node resume path: anything stale or corrupt is skipped and
// the replica re-runs from zero.
func (w *Worker) resumeProvider(key string, grant *Grant, spec *parsurf.SessionSpec,
	gridLen int, steps, times []atomic.Uint64) parsurf.ReplicaResume {
	slots, err := w.Store.Checkpoints(key)
	if err != nil || len(slots) == 0 {
		return nil
	}
	blobs := make(map[int][]byte, len(slots))
	for _, s := range slots {
		i, err := strconv.Atoi(s)
		if err != nil || i < grant.Lo || i >= grant.Hi {
			continue
		}
		if data, err := w.Store.GetCheckpoint(key, s); err == nil {
			blobs[i] = data
		}
	}
	if len(blobs) == 0 {
		return nil
	}
	return func(variant, replica int) (*parsurf.Session, int, [][]float64, bool) {
		data, ok := blobs[replica]
		if !ok {
			return nil, 0, nil, false
		}
		v, r, nextK, rows, cpBytes, err := job.DecodeReplicaCheckpoint(data)
		if err != nil || v != grant.Variant || r != replica || nextK > gridLen ||
			len(rows) != spec.NumSpecies() {
			return nil, 0, nil, false
		}
		sess, err := parsurf.ResumeSession(spec, bytes.NewReader(cpBytes))
		if err != nil {
			return nil, 0, nil, false
		}
		k := replica - grant.Lo
		steps[k].Store(sess.Engine().Steps())
		times[k].Store(math.Float64bits(sess.Engine().Time()))
		w.logf("worker %s: resuming replica %d of %s at grid point %d", w.ID, replica, grant.Shard, nextK)
		return sess, nextK, rows, true
	}
}
