// Package serve exposes a recovered xmlrdb Pipeline over HTTP: SQL
// (/query), path queries (/path, with EXPLAIN), document reconstruction
// (/doc/{id}), health and store statistics, plus the obs debug
// endpoints. Query responses stream: rows are JSON-encoded as the
// engine produces them (first row prefetched so errors still map to a
// status code, then periodic flushes), so a client reading a large
// result sees bytes before the scan finishes and a client that
// disconnects aborts the scan at the engine's next cancellation
// checkpoint. Query endpoints run under a per-request deadline wired
// into the engine's cancellation checkpoints and behind a
// bounded-concurrency admission gate that sheds load with 429 +
// Retry-After instead of queueing without bound. Shutdown drains
// in-flight requests before returning, so the caller can close the
// pipeline without cutting off accepted work.
package serve

import (
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
	"sync/atomic"
	"time"

	"xmlrdb"
	"xmlrdb/internal/obs"
)

// Options tunes a Server.
type Options struct {
	// MaxConcurrent bounds concurrently executing query requests (the
	// admission gate); <= 0 selects 8. Health, stats and debug endpoints
	// are not gated.
	MaxConcurrent int
	// RequestTimeout is the per-request execution deadline; <= 0 selects
	// 5s. A request that exceeds it aborts at the engine's next
	// cancellation checkpoint and returns 504.
	RequestTimeout time.Duration
	// Metrics receives request counters, latency and the in-flight
	// gauge; nil uses the pipeline's own hub.
	Metrics *obs.Metrics
	// Recorder holds completed request traces for /debug/traces; nil
	// creates one (sized obs.DefaultRecorderSize, slow threshold
	// SlowQuery).
	Recorder *obs.Recorder
	// SlowQuery marks request traces at or over this duration as slow,
	// which the flight recorder retains preferentially. <= 0 disables
	// the slow classification.
	SlowQuery time.Duration
	// TraceSample controls request tracing: 0 or 1 traces every
	// request, N > 1 traces one in N, and a negative value disables
	// tracing entirely (no spans, no flight-recorder entries).
	TraceSample int
}

// Server serves one pipeline. Create with New, start with Serve or
// ListenAndServe, stop with Shutdown.
type Server struct {
	p      *xmlrdb.Pipeline
	opts   Options
	gate   chan struct{}
	obs    *obs.Metrics
	rec    *obs.Recorder
	traceN atomic.Uint64 // round-robin sampling counter
	mux    *http.ServeMux
	srv    *http.Server

	// connMu guards fresh and draining: fresh holds the connections that
	// have not yet sent a request, which Shutdown closes up front.
	connMu   sync.Mutex
	fresh    map[net.Conn]struct{}
	draining bool
}

// New builds a Server around an open pipeline. The pipeline stays
// owned by the caller: Shutdown drains requests but does not close it.
func New(p *xmlrdb.Pipeline, opts Options) *Server {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 8
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 5 * time.Second
	}
	m := opts.Metrics
	if m == nil {
		m = p.Obs
	}
	rec := opts.Recorder
	if rec == nil {
		rec = obs.NewRecorder(0, opts.SlowQuery)
	}
	s := &Server{
		p:     p,
		opts:  opts,
		gate:  make(chan struct{}, opts.MaxConcurrent),
		obs:   m,
		rec:   rec,
		mux:   http.NewServeMux(),
		fresh: make(map[net.Conn]struct{}),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.Handle("GET /query", s.gated("query", s.handleQuery))
	s.mux.Handle("POST /query", s.gated("query", s.handleQuery))
	s.mux.Handle("GET /path", s.gated("path", s.handlePath))
	s.mux.Handle("GET /doc/{id}", s.gated("doc", s.handleDoc))
	s.mux.Handle("/debug/", obs.DebugMuxWith(m, rec))
	s.mux.Handle("GET /metrics", obs.PromHandler(m))
	s.srv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		// Long enough that a client's keep-alive connection outlives any
		// pause between its requests.
		IdleTimeout: 2 * time.Minute,
		ConnState:   s.trackConn,
	}
	return s
}

// trackConn records which connections have not sent a request yet. One
// that opens while Shutdown drains is closed at once.
func (s *Server) trackConn(c net.Conn, state http.ConnState) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	switch {
	case state != http.StateNew:
		delete(s.fresh, c)
	case s.draining:
		c.Close()
	default:
		s.fresh[c] = struct{}{}
	}
}

// Recorder returns the server's flight recorder.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// sampleTrace decides whether the next request is traced.
func (s *Server) sampleTrace() bool {
	n := s.opts.TraceSample
	if n < 0 {
		return false
	}
	if n <= 1 {
		return true
	}
	return s.traceN.Add(1)%uint64(n) == 1
}

// Handler returns the server's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(ln net.Listener) error { return s.srv.Serve(ln) }

// ListenAndServe binds addr and serves; see Serve.
func (s *Server) ListenAndServe(addr string) error {
	s.srv.Addr = addr
	return s.srv.ListenAndServe()
}

// Shutdown stops accepting new connections and blocks until every
// in-flight request has completed or ctx expires. Connections that have
// not sent a request are closed first: net/http would otherwise count
// each as busy for its first 5 s and hold the drain open. Close the
// pipeline only after Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.connMu.Lock()
	s.draining = true
	for c := range s.fresh {
		c.Close()
		delete(s.fresh, c)
	}
	s.connMu.Unlock()
	return s.srv.Shutdown(ctx)
}

// gated wraps a query handler with the admission gate, the per-request
// deadline and the serve metrics. A saturated gate sheds immediately
// with 429 + Retry-After rather than queueing: the client can retry,
// and the requests already running keep their resources.
func (s *Server) gated(name string, h func(http.ResponseWriter, *http.Request) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.gate <- struct{}{}:
		default:
			s.obs.ServeShed.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server saturated, retry later", http.StatusTooManyRequests)
			return
		}
		defer func() { <-s.gate }()
		s.obs.ServeRequests.Inc()
		s.obs.ServeInflight.Inc()
		defer s.obs.ServeInflight.Dec()
		start := time.Now()
		// Latency is recorded in a defer: a mid-stream failure aborts the
		// handler with a panic (the status line is already on the wire)
		// and must still count.
		defer func() { s.obs.ServeLatency.ObserveDuration(time.Since(start)) }()
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		var tr *obs.Trace
		if s.sampleTrace() {
			// One root span per request. A client-supplied X-Request-ID
			// becomes the trace ID and is echoed back either way, so the
			// caller can fetch /debug/traces/{id} afterwards.
			tr = obs.NewTrace("serve."+name, r.Header.Get("X-Request-ID"))
			root := tr.Root()
			root.SetAttr("method", r.Method)
			root.SetAttr("url", r.URL.String())
			w.Header().Set("X-Request-ID", tr.ID)
			ctx = obs.WithTrace(ctx, tr)
			// Recorded in a defer so aborted (panicking) streams are
			// captured too — those are exactly the traces worth keeping.
			defer func() {
				if p := recover(); p != nil {
					tr.Finish(errAborted)
					s.rec.Record(tr)
					panic(p)
				}
				tr.Finish(nil) // no-op if already finished with an error
				s.rec.Record(tr)
			}()
		}
		if err := h(w, r.WithContext(ctx)); err != nil {
			s.obs.ServeErrors.Inc()
			tr.Finish(err)
			s.fail(w, err)
			return
		}
	})
}

// errAborted marks traces whose response stream failed mid-flight.
var errAborted = errors.New("response aborted mid-stream")

// fail maps an execution error to a status code and writes it.
func (s *Server) fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.obs.ServeTimeouts.Inc()
		http.Error(w, "request deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		// The client went away; 499 in nginx's vocabulary. The write is
		// best-effort — the connection is usually gone.
		http.Error(w, "request cancelled", 499)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.p.Stats()
	docs, err := s.p.DocumentIDs()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{
		"tables":    st.Tables,
		"rows":      st.Rows,
		"bytes":     st.Bytes,
		"documents": len(docs),
		// Per-table ANALYZE freshness: whether statistics exist and how
		// many mutations have committed since they were collected.
		"stats_freshness": s.p.StatsFreshness(),
	})
}

// streamFlushEvery is the row interval between forced flushes once a
// response is streaming.
const streamFlushEvery = 64

// streamRows writes a cursor's result in the {"cols":…,"rows":…,"n":…}
// shape, encoding each row as the engine produces it instead of
// materializing the result. The first row is prefetched before the
// header goes out, so plan-time and early execution errors still map
// to a status code; after that the response flushes on the first row
// and every streamFlushEvery rows, so a client reading a large result
// sees bytes before the scan finishes. A failure once the body has
// started cannot change the status line, so the connection is aborted
// instead — the client sees a truncated body, not a complete-looking
// partial result.
func (s *Server) streamRows(ctx context.Context, w http.ResponseWriter, cur xmlrdb.Cursor) error {
	defer cur.Close()
	// Idle-cursor guard: a cursor pins an MVCC snapshot (and its row
	// versions) until Close, so an abandoned connection must not keep it
	// open — close the cursor the moment the request context dies.
	// Cursors tolerate Close racing Next; the loop then sees Next()
	// return false and falls through to the normal epilogue.
	stop := context.AfterFunc(ctx, func() { cur.Close() })
	defer stop()
	have := cur.Next()
	if err := cur.Err(); err != nil {
		return err
	}
	cols := cur.Cols()
	if cols == nil {
		cols = []string{}
	}
	head, err := json.Marshal(cols)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	fl, _ := w.(http.Flusher)
	fmt.Fprintf(w, `{"cols":%s,"rows":[`, head)
	n := 0
	for have {
		rowJSON, err := json.Marshal(cur.Row())
		if err != nil {
			s.abort(err)
		}
		if n > 0 {
			io.WriteString(w, ",")
		}
		w.Write(rowJSON)
		n++
		s.obs.ServeRowsStreamed.Inc()
		if fl != nil && (n == 1 || n%streamFlushEvery == 0) {
			fl.Flush()
		}
		have = cur.Next()
	}
	if err := cur.Err(); err != nil {
		s.abort(err)
	}
	fmt.Fprintf(w, "],\"n\":%d}\n", n)
	return nil
}

// abort records a mid-stream failure and drops the connection.
func (s *Server) abort(err error) {
	s.obs.ServeErrors.Inc()
	if errors.Is(err, context.DeadlineExceeded) {
		s.obs.ServeTimeouts.Inc()
	}
	panic(http.ErrAbortHandler)
}

// handleQuery executes a SQL statement: ?sql= on GET, the request body
// on POST. Bodies are capped at 1 MiB — a statement longer than that
// is a mistake, not a workload. SELECT results stream as they are
// produced.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	stmt := r.URL.Query().Get("sql")
	if r.Method == http.MethodPost && stmt == "" {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			return err
		}
		stmt = string(body)
	}
	if strings.TrimSpace(stmt) == "" {
		return fmt.Errorf("missing sql (use ?sql= or a POST body)")
	}
	cur, err := s.p.SQLCursor(r.Context(), stmt)
	if err != nil {
		return err
	}
	return s.streamRows(r.Context(), w, cur)
}

// handlePath executes a path query (?q=), or renders its EXPLAIN
// report — including each arm's executed physical plan — with
// ?explain=1. Result rows stream as the union arms produce them.
func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) error {
	path := r.URL.Query().Get("q")
	if path == "" {
		return fmt.Errorf("missing path query (use ?q=)")
	}
	if r.URL.Query().Get("explain") == "1" {
		report, err := s.p.ExplainPathContext(r.Context(), path)
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, report)
		return nil
	}
	cur, err := s.p.QueryCursor(r.Context(), path)
	if err != nil {
		return err
	}
	return s.streamRows(r.Context(), w, cur)
}

// handleDoc reconstructs one document by id.
func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request) error {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		return fmt.Errorf("bad document id %q", r.PathValue("id"))
	}
	xml, err := s.p.Reconstruct(id)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	fmt.Fprint(w, xml)
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
