package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"parsurf/internal/fleet"
	"parsurf/internal/job"
	"parsurf/internal/store"
)

// surfd's flag defaults, which the benchmark's in-process surfd uses.
const (
	surfdRunners   = 2
	surfdCkptEvery = 5 * time.Second
)

// surfdOptions selects the surfd mode.
type surfdOptions struct {
	dataDir  string // a durable store.FS in this directory; "" for none
	memStore bool   // with no dataDir: the durable manager on store.Mem
	fleet    bool   // coordinate a fleet and run one in-process worker
	workers  int    // the fleet worker's replica goroutines
	tr       *Tracer
}

// surfd is an in-process surfd assembled from the constructors
// cmd/surfd uses, serving on a loopback port.
type surfd struct {
	base       string
	mgr        *job.Manager
	coord      *fleet.Coordinator
	st         *timedStore   // traced, with a store, only
	rec        *httpRecorder // traced only
	srv        *http.Server
	serveDone  chan struct{}
	workerStop context.CancelFunc
	workerDone chan struct{}
}

func startSurfd(o surfdOptions) (*surfd, error) {
	s := &surfd{}
	opts := []job.ManagerOption{job.CheckpointEvery(surfdCkptEvery)}
	var st store.Store
	switch {
	case o.dataDir != "":
		fs, err := store.OpenFS(o.dataDir)
		if err != nil {
			return nil, err
		}
		st = fs
	case o.memStore:
		st = store.NewMem()
	}
	if st != nil {
		var err error
		if o.tr != nil {
			s.st = newTimedStore(st)
			st = s.st
		}
		if o.fleet {
			s.coord, err = fleet.New(st, fleet.ShardSize(fleet.DefaultShardSize), fleet.LeaseTTL(fleet.DefaultLeaseTTL))
			if err != nil {
				return nil, err
			}
			opts = append(opts, job.WithExecutor(s.coord))
		}
		s.mgr, err = job.NewManagerWithStore(surfdRunners, job.DefaultBacklog, st, opts...)
		if err != nil {
			if s.coord != nil {
				s.coord.Close()
			}
			return nil, err
		}
	} else {
		s.mgr = job.NewManager(surfdRunners, job.DefaultBacklog, opts...)
	}
	var handler http.Handler = job.NewServer(s.mgr)
	if o.tr != nil {
		s.rec = newHTTPRecorder(o.tr)
		handler = s.rec.jobs(handler)
	}
	if s.coord != nil {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		var fh http.Handler = fleet.NewHandler(s.coord)
		if s.rec != nil {
			fh = s.rec.fleet(fh)
		}
		mux.Handle("/fleet/", fh)
		handler = job.Recoverer(mux)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.mgr.Close()
		if s.coord != nil {
			s.coord.Close()
		}
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	s.serveDone = make(chan struct{})
	go func() {
		defer close(s.serveDone)
		s.srv.Serve(ln)
	}()
	if o.fleet {
		w := &fleet.Worker{
			ID:              "perfbench-worker",
			Coordinator:     s.base,
			Workers:         o.workers,
			CheckpointEvery: surfdCkptEvery,
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.workerStop = cancel
		s.workerDone = make(chan struct{})
		go func() {
			defer close(s.workerDone)
			w.Run(ctx)
		}()
	}
	return s, nil
}

// close stops the worker, drains the server and closes the manager and
// coordinator, in cmd/surfd's shutdown order. It returns once every
// goroutine it started has ended. It first drops the benchmark clients'
// idle keep-alive connections, which would otherwise hold the server's
// graceful shutdown until they timed out.
func (s *surfd) close() {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if s.workerStop != nil {
		s.workerStop()
		<-s.workerDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); errors.Is(err, context.DeadlineExceeded) {
		s.srv.Close()
	}
	<-s.serveDone
	s.mgr.Close()
	if s.coord != nil {
		s.coord.Close()
	}
}

// spanHeader carries the client span id, so server-side spans can name
// their parent.
const spanHeader = "X-Perfbench-Span"

// httpRecorder times the job and fleet HTTP handlers of a traced surfd.
type httpRecorder struct {
	tr *Tracer

	mu          sync.Mutex
	submitMs    []float64
	resultMs    []float64
	leases      int
	emptyLeases int
	heartbeats  int
	uploadMs    []float64
	uploadBytes int64
	firstGrant  map[string]time.Time // job id → first shard granted
}

func newHTTPRecorder(tr *Tracer) *httpRecorder {
	return &httpRecorder{tr: tr, firstGrant: make(map[string]time.Time)}
}

// reset discards everything recorded so far, so the metrics cover only
// the measurement window.
func (h *httpRecorder) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.submitMs, h.resultMs, h.uploadMs = nil, nil, nil
	h.leases, h.emptyLeases, h.heartbeats, h.uploadBytes = 0, 0, 0, 0
	h.firstGrant = make(map[string]time.Time)
}

func parentSpan(r *http.Request) int64 {
	id, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	return id
}

// jobs wraps the job API handler, timing submissions and result reads.
func (h *httpRecorder) jobs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t1 := time.Now()
		var kind string
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/jobs":
			kind = "submit"
		case strings.HasSuffix(r.URL.Path, "/result"):
			kind = "result"
		case strings.HasSuffix(r.URL.Path, "/events"):
			kind = "events"
		default:
			kind = "other"
		}
		ms := float64(t1.Sub(t0)) / 1e6
		h.mu.Lock()
		switch kind {
		case "submit":
			h.submitMs = append(h.submitMs, ms)
		case "result":
			h.resultMs = append(h.resultMs, ms)
		}
		h.mu.Unlock()
		h.tr.Record(h.tr.NewID(), parentSpan(r), "http."+kind, jobFromPath(r.URL.Path), t0, t1)
	})
}

// jobFromPath extracts the job id of a /jobs/{id}/... path.
func jobFromPath(path string) string {
	rest, ok := strings.CutPrefix(path, "/jobs/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// captureWriter keeps the status and body of a small response.
type captureWriter struct {
	http.ResponseWriter
	code int
	body bytes.Buffer
}

func (c *captureWriter) WriteHeader(code int) {
	c.code = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.code == 0 {
		c.code = http.StatusOK
	}
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

// fleet wraps the /fleet/ handler, counting leases, empty polls and
// heartbeats and timing result uploads.
func (h *httpRecorder) fleet(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		switch {
		case r.URL.Path == "/fleet/lease":
			cw := &captureWriter{ResponseWriter: w}
			next.ServeHTTP(cw, r)
			t1 := time.Now()
			var grant fleet.Grant
			granted := cw.code == http.StatusOK && json.Unmarshal(cw.body.Bytes(), &grant) == nil
			h.mu.Lock()
			h.leases++
			if !granted {
				h.emptyLeases++
			} else if _, seen := h.firstGrant[grant.Job]; !seen {
				h.firstGrant[grant.Job] = t1
			}
			h.mu.Unlock()
			if granted {
				h.tr.Record(h.tr.NewID(), 0, "fleet.lease", grant.Job, t0, t1)
			}
		case strings.HasSuffix(r.URL.Path, "/heartbeat"):
			next.ServeHTTP(w, r)
			h.mu.Lock()
			h.heartbeats++
			h.mu.Unlock()
		case strings.HasSuffix(r.URL.Path, "/result"):
			next.ServeHTTP(w, r)
			t1 := time.Now()
			h.mu.Lock()
			h.uploadMs = append(h.uploadMs, float64(t1.Sub(t0))/1e6)
			h.uploadBytes += max(r.ContentLength, 0)
			h.mu.Unlock()
			global := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/fleet/shards/"), "/result")
			jobID, _, _ := fleet.SplitShardID(global)
			h.tr.Record(h.tr.NewID(), 0, "fleet.result", jobID, t0, t1)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// client is one closed-loop researcher: it submits a job, follows its
// SSE stream to the done frame, then reads the result.
type client struct {
	base string
	hc   *http.Client
	tr   *Tracer
}

func newClient(base string, tr *Tracer) *client {
	return &client{base: base, hc: &http.Client{Timeout: 2 * time.Minute}, tr: tr}
}

// jobOutcome is one job as the client saw it.
type jobOutcome struct {
	id       string
	accepted time.Time // 202 received
	latency  float64   // submit to the last result byte, seconds
	queueMs  float64   // 202 to the first running frame
	hasQueue bool
	cached   bool
	variants []byte // the result's "variants" JSON, compacted
}

func (c *client) do(req *http.Request, parent int64) (*http.Response, error) {
	if c.tr != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(parent, 10))
	}
	return c.hc.Do(req)
}

// get fetches a URL and returns its body, failing on a non-2xx status.
func (c *client) get(path string, parent int64) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req, parent)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// runJob submits body and waits for its result; csv also streams the
// first variant's CSV. Any non-2xx reply or a job that does not end
// done is an error.
func (c *client) runJob(body []byte, csv bool) (*jobOutcome, error) {
	jobSpan := c.tr.NewID()
	t0 := time.Now()
	out := &jobOutcome{}

	subSpan := c.tr.NewID()
	req, err := http.NewRequest(http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req, subSpan)
	if err != nil {
		return nil, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(reply))
	}
	var st job.Status
	if err := json.Unmarshal(reply, &st); err != nil {
		return nil, fmt.Errorf("POST /jobs reply: %w", err)
	}
	out.id, out.cached = st.ID, st.Cached
	out.accepted = time.Now()
	c.tr.Record(subSpan, jobSpan, "client.submit", out.id, t0, out.accepted)

	evSpan := c.tr.NewID()
	final, err := c.follow(out, evSpan)
	c.tr.Record(evSpan, jobSpan, "client.events", out.id, out.accepted, time.Now())
	if err != nil {
		return nil, err
	}
	if final.State != job.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", out.id, final.State, final.Error)
	}
	out.cached = out.cached || final.Cached

	resSpan := c.tr.NewID()
	tRes := time.Now()
	data, err := c.get("/jobs/"+out.id+"/result", resSpan)
	if err != nil {
		return nil, err
	}
	var res struct {
		Variants json.RawMessage `json:"variants"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("job %s result: %w", out.id, err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, res.Variants); err != nil {
		return nil, fmt.Errorf("job %s result: %w", out.id, err)
	}
	out.variants = compact.Bytes()
	if csv {
		table, err := c.get("/jobs/"+out.id+"/result?format=csv", resSpan)
		if err != nil {
			return nil, err
		}
		if !bytes.HasPrefix(table, []byte("t,")) {
			return nil, fmt.Errorf("job %s CSV does not start with a header", out.id)
		}
	}
	end := time.Now()
	c.tr.Record(resSpan, jobSpan, "client.result", out.id, tRes, end)
	c.tr.Record(jobSpan, 0, "job", out.id, t0, end)
	out.latency = end.Sub(t0).Seconds()
	return out, nil
}

// follow reads the job's SSE stream until the done frame, noting when
// the first running frame arrives.
func (c *client) follow(out *jobOutcome, parent int64) (*job.Status, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/jobs/"+out.id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req, parent)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET events of %s: %s", out.id, resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("events of %s ended before the done frame: %w", out.id, err)
		}
		line = strings.TrimRight(line, "\n")
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var st job.Status
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return nil, fmt.Errorf("events of %s: %w", out.id, err)
		}
		if st.State == job.StateRunning && !out.hasQueue {
			out.queueMs = float64(time.Since(out.accepted)) / 1e6
			out.hasQueue = true
		}
		if event == "done" {
			return &st, nil
		}
	}
}
