package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parsurf"
	"parsurf/internal/job"
	"parsurf/internal/store"
)

// wakeBound is how soon a parked lease must be granted after a shard
// becomes queued.
const wakeBound = 50 * time.Millisecond

// parkDelay gives a lease call started in a goroutine time to scan the
// empty queue and park before the test queues a shard.
const parkDelay = 20 * time.Millisecond

// noLeaks fails the test if it ends with more goroutines than it began
// with. Call it first, so its cleanup runs after every deferred close.
func noLeaks(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines, %d at start:\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// leaseResult is the outcome of one Lease call run in a goroutine.
type leaseResult struct {
	grant *Grant
	ok    bool
	at    time.Time
}

// parkLease starts a Lease call in a goroutine and waits parkDelay for
// it to park.
func parkLease(ctx context.Context, c *Coordinator, worker string, wait time.Duration) <-chan leaseResult {
	out := make(chan leaseResult, 1)
	go func() {
		g, ok := c.Lease(ctx, worker, wait)
		out <- leaseResult{g, ok, time.Now()}
	}()
	time.Sleep(parkDelay)
	return out
}

// oneShardReq is a job of exactly one shard under ShardSize(4).
func oneShardReq(t *testing.T, seed uint64) job.Request {
	t.Helper()
	return job.Request{
		Specs:    []*parsurf.SessionSpec{ziffSpec(t, 0.51, seed)},
		Replicas: 4,
		Workers:  1,
		Until:    5,
		Every:    1,
	}
}

// grantedSoon asserts that a parked lease was granted within wakeBound
// of since.
func grantedSoon(t *testing.T, res <-chan leaseResult, since time.Time, what string) *Grant {
	t.Helper()
	select {
	case r := <-res:
		if !r.ok {
			t.Fatalf("%s: parked lease returned without a grant", what)
		}
		if d := r.at.Sub(since); d > wakeBound {
			t.Errorf("%s: parked lease granted %v later, want within %v", what, d, wakeBound)
		}
		return r.grant
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: parked lease never granted", what)
		return nil
	}
}

// A lease parked on an empty queue is granted as soon as a job opens.
func TestParkedLeaseGrantedOnOpenJob(t *testing.T) {
	noLeaks(t)
	st := store.NewMem()
	coord, err := New(st, ShardSize(4), LeaseTTL(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	m := fleetManager(t, st, coord, 1)
	defer m.Close()

	res := parkLease(context.Background(), coord, "w1", 5*time.Second)
	t0 := time.Now()
	j, err := m.Submit(oneShardReq(t, 21))
	if err != nil {
		t.Fatal(err)
	}
	g := grantedSoon(t, res, t0, "open job")
	if g.Job != j.ID() {
		t.Fatalf("granted a shard of %s, want %s", g.Job, j.ID())
	}
	j.Cancel()
	waitTerminal(t, j, 30*time.Second)
}

// A lease parked while the only shard is leased is granted as soon as
// that lease expires.
func TestParkedLeaseGrantedOnExpiry(t *testing.T) {
	noLeaks(t)
	st := store.NewMem()
	ttl := 400 * time.Millisecond
	coord, err := New(st, ShardSize(4), LeaseTTL(ttl), MaxShardAttempts(10))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	m := fleetManager(t, st, coord, 1)
	defer m.Close()

	j, err := m.Submit(oneShardReq(t, 22))
	if err != nil {
		t.Fatal(err)
	}
	dead := waitLease(t, coord, "w-dead", 10*time.Second)
	// Park for the whole TTL (the clamp), from half way through the dead
	// worker's lease, so the expiry lands inside the wait.
	time.Sleep(ttl / 2)
	res := parkLease(context.Background(), coord, "w-live", ttl)
	for deadline := time.Now().Add(5 * time.Second); coord.Counters().Expiries == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("lease on %s never expired", dead.Shard)
		}
	}
	expired := time.Now()
	if g := grantedSoon(t, res, expired, "expiry"); g.Shard != dead.Shard {
		t.Fatalf("granted %s, want the expired %s", g.Shard, dead.Shard)
	}
	j.Cancel()
	waitTerminal(t, j, 30*time.Second)
}

// A lease parked while the only shard is leased is granted as soon as
// the holder reports a failure.
func TestParkedLeaseGrantedOnFail(t *testing.T) {
	noLeaks(t)
	st := store.NewMem()
	coord, err := New(st, ShardSize(4), LeaseTTL(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	m := fleetManager(t, st, coord, 1)
	defer m.Close()

	j, err := m.Submit(oneShardReq(t, 23))
	if err != nil {
		t.Fatal(err)
	}
	g := waitLease(t, coord, "w1", 10*time.Second)
	jobID, shardID, err := SplitShardID(g.Shard)
	if err != nil {
		t.Fatal(err)
	}
	res := parkLease(context.Background(), coord, "w2", 5*time.Second)
	t0 := time.Now()
	if err := coord.Fail(jobID, shardID, "w1", "out of memory"); err != nil {
		t.Fatal(err)
	}
	if g2 := grantedSoon(t, res, t0, "fail requeue"); g2.Shard != g.Shard {
		t.Fatalf("granted %s, want the requeued %s", g2.Shard, g.Shard)
	}
	j.Cancel()
	waitTerminal(t, j, 30*time.Second)
}

// An idle parked lease returns empty at its wait (clamped to the lease
// TTL), and at once on ctx cancellation and on Close.
func TestParkedLeaseEnds(t *testing.T) {
	noLeaks(t)
	coord, err := New(store.NewMem(), LeaseTTL(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	for _, tc := range []struct {
		name string
		wait time.Duration
		want time.Duration
	}{
		{"wait", 100 * time.Millisecond, 100 * time.Millisecond},
		{"ttl clamp", 10 * time.Second, 300 * time.Millisecond},
		{"no wait", 0, 0},
	} {
		t0 := time.Now()
		if _, ok := coord.Lease(context.Background(), "w1", tc.wait); ok {
			t.Fatalf("%s: granted from an empty queue", tc.name)
		}
		if d := time.Since(t0); d < tc.want || d > tc.want+wakeBound {
			t.Errorf("%s: returned after %v, want %v", tc.name, d, tc.want)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	res := parkLease(ctx, coord, "w1", 300*time.Millisecond)
	t0 := time.Now()
	cancel()
	endsEmptySoon(t, res, t0, "ctx cancel")

	res = parkLease(context.Background(), coord, "w1", 300*time.Millisecond)
	t0 = time.Now()
	coord.Close()
	endsEmptySoon(t, res, t0, "Close")
	// A closed coordinator answers every later call at once.
	t0 = time.Now()
	if _, ok := coord.Lease(context.Background(), "w1", 300*time.Millisecond); ok {
		t.Fatal("closed coordinator granted a lease")
	}
	if d := time.Since(t0); d > wakeBound {
		t.Errorf("lease on a closed coordinator took %v", d)
	}
}

// endsEmptySoon asserts that a parked lease returned without a grant
// within wakeBound of since.
func endsEmptySoon(t *testing.T, res <-chan leaseResult, since time.Time, what string) {
	t.Helper()
	select {
	case r := <-res:
		if r.ok {
			t.Fatalf("%s: granted from an empty queue", what)
		}
		if d := r.at.Sub(since); d > wakeBound {
			t.Errorf("%s: parked lease returned %v later, want within %v", what, d, wakeBound)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: parked lease never returned", what)
	}
}

// Over HTTP, a lease request without wait_ms (an older worker) is
// answered 204 at once; one with wait_ms is held for it.
func TestLeaseHandlerWaitMs(t *testing.T) {
	noLeaks(t)
	coord, err := New(store.NewMem(), LeaseTTL(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()
	client := srv.Client()
	defer client.CloseIdleConnections()

	for _, tc := range []struct {
		body string
		want time.Duration
	}{
		{`{"worker": "old"}`, 0},
		{`{"worker": "new", "wait_ms": 150}`, 150 * time.Millisecond},
	} {
		t0 := time.Now()
		resp, err := client.Post(srv.URL+"/fleet/lease", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		d := time.Since(t0)
		if resp.StatusCode != http.StatusNoContent {
			t.Errorf("%s: status %d, want 204", tc.body, resp.StatusCode)
		}
		if d < tc.want || d > tc.want+wakeBound {
			t.Errorf("%s: answered after %v, want %v", tc.body, d, tc.want)
		}
	}
}

// A worker against a coordinator that answers every lease with an
// immediate 204 (an older coordinator, without the long poll) still
// makes at most one lease call per Poll — never a tight loop — and
// asks for Poll as its wait.
func TestWorkerIdleLeaseRate(t *testing.T) {
	noLeaks(t)
	var calls atomic.Int64
	var badWait atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if r.URL.Path == "/fleet/lease" && json.NewDecoder(r.Body).Decode(&req) == nil {
			calls.Add(1)
			if req.WaitMs != 50 {
				badWait.Store(fmt.Sprintf("wait_ms %d, want 50", req.WaitMs))
			}
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	client := srv.Client()
	defer client.CloseIdleConnections()

	poll := 50 * time.Millisecond
	run := time.Second
	ctx, cancel := context.WithTimeout(context.Background(), run)
	defer cancel()
	w := &Worker{ID: "w1", Coordinator: srv.URL, Poll: poll, Client: client}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	limit := int64(math.Ceil(float64(run)/float64(poll))) + 1
	if n := calls.Load(); n > limit || n < 2 {
		t.Errorf("%d lease calls in %v at Poll %v, want 2..%d", n, run, poll, limit)
	}
	if msg := badWait.Load(); msg != nil {
		t.Error(msg)
	}
}

// A shard result re-uploaded after its job is done and dropped from the
// coordinator is still an idempotent success (200), so the worker
// clears its checkpoints, and a late failure report is a no-op; after a
// job that did not finish, the upload is 410.
func TestResultAfterDropJob(t *testing.T) {
	noLeaks(t)
	st := store.NewMem()
	coord, err := New(st, ShardSize(4), LeaseTTL(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	m := fleetManager(t, st, coord, 1)
	defer m.Close()
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()
	client := srv.Client()
	defer client.CloseIdleConnections()

	upload := func(g *Grant, data []byte) int {
		t.Helper()
		resp, err := client.Post(srv.URL+"/fleet/shards/"+g.Shard+"/result?worker=w1",
			"application/octet-stream", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	dropped := func(jobID string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); coord.JobShards(jobID) != nil; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never dropped from the coordinator", jobID)
			}
		}
	}

	j, err := m.Submit(oneShardReq(t, 24))
	if err != nil {
		t.Fatal(err)
	}
	g := waitLease(t, coord, "w1", 10*time.Second)
	data := runGrant(t, g)
	if code := upload(g, data); code != http.StatusOK {
		t.Fatalf("first upload: %d", code)
	}
	if st := waitTerminal(t, j, 30*time.Second); st.State != job.StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	dropped(j.ID())
	if code := upload(g, data); code != http.StatusOK {
		t.Fatalf("upload after DropJob of a done job: %d, want 200", code)
	}
	jobID, shardID, err := SplitShardID(g.Shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Fail(jobID, shardID, "w1", "too late"); err != nil {
		t.Fatalf("failure report after DropJob of a done job: %v", err)
	}

	j2, err := m.Submit(oneShardReq(t, 25))
	if err != nil {
		t.Fatal(err)
	}
	g2 := waitLease(t, coord, "w1", 10*time.Second)
	j2.Cancel()
	waitTerminal(t, j2, 30*time.Second)
	dropped(j2.ID())
	if code := upload(g2, runGrant(t, g2)); code != http.StatusGone {
		t.Fatalf("upload after DropJob of a cancelled job: %d, want 410", code)
	}
}
