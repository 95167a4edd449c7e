package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xmlrdb"
	"xmlrdb/internal/paper"
	"xmlrdb/internal/sqldb"
	"xmlrdb/internal/xmltree"
)

func testPipeline(t *testing.T) *xmlrdb.Pipeline {
	t.Helper()
	p, err := xmlrdb.Open(paper.Example1DTD, xmlrdb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadXML(paper.BookXML, "book1"); err != nil {
		t.Fatal(err)
	}
	return p
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestQueryNestingLimit checks a 20 000-level statement posted to
// /query is refused with 400 and the parser's nesting error.
func TestQueryNestingLimit(t *testing.T) {
	h := New(testPipeline(t), Options{}).Handler()
	stmt := "SELECT " + strings.Repeat("(", 20000) + "1" + strings.Repeat(")", 20000) + " FROM e_book"
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(stmt)))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), sqldb.ErrTooDeep.Error()) {
		t.Fatalf("status %d, body %q; want 400 with %q", w.Code, w.Body, sqldb.ErrTooDeep)
	}
}

func TestEndpoints(t *testing.T) {
	p := testPipeline(t)
	s := New(p, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body := get(t, ts, "/stats")
	if code != 200 {
		t.Fatalf("/stats = %d %q", code, body)
	}
	var stats map[string]any
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if stats["documents"].(float64) != 1 {
		t.Fatalf("/stats documents = %v", stats["documents"])
	}

	code, body = get(t, ts, "/query?sql=SELECT+COUNT(*)+FROM+e_author")
	if code != 200 {
		t.Fatalf("/query = %d %q", code, body)
	}
	var qr struct {
		Cols []string `json:"cols"`
		Rows [][]any  `json:"rows"`
		N    int      `json:"n"`
	}
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.N != 1 || qr.Rows[0][0].(float64) != 2 {
		t.Fatalf("/query result = %+v", qr)
	}

	// POST body form.
	resp, err := ts.Client().Post(ts.URL+"/query", "text/plain",
		strings.NewReader("SELECT COUNT(*) FROM e_author"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("POST /query = %d", resp.StatusCode)
	}

	code, body = get(t, ts, "/path?q=/book/author")
	if code != 200 {
		t.Fatalf("/path = %d %q", code, body)
	}
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.N != 2 {
		t.Fatalf("/path rows = %+v", qr)
	}

	code, body = get(t, ts, "/doc/1")
	if code != 200 || !strings.Contains(body, "<booktitle>") {
		t.Fatalf("/doc/1 = %d %q", code, body)
	}

	// Error mapping: bad SQL and bad path are client errors.
	if code, _ := get(t, ts, "/query?sql=NOT+SQL"); code != 400 {
		t.Fatalf("bad sql = %d, want 400", code)
	}
	if code, _ := get(t, ts, "/path?q=book"); code != 400 {
		t.Fatalf("bad path = %d, want 400", code)
	}
	if code, _ := get(t, ts, "/doc/xyz"); code != 400 {
		t.Fatalf("bad doc id = %d, want 400", code)
	}
	if code, _ := get(t, ts, "/query"); code != 400 {
		t.Fatalf("missing sql = %d, want 400", code)
	}
}

func TestExplainReportsCacheHit(t *testing.T) {
	p := testPipeline(t)
	s := New(p, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, first := get(t, ts, "/path?q=/book/booktitle/text()&explain=1")
	if strings.Contains(first, "plan-cache") {
		t.Fatalf("first explain already reports a cache hit:\n%s", first)
	}
	_, second := get(t, ts, "/path?q=/book/booktitle/text()&explain=1")
	if !strings.Contains(second, "-- plan-cache: hit") {
		t.Fatalf("second explain lacks the cache-hit note:\n%s", second)
	}
	snap := p.MetricsSnapshot()
	if snap.Query.PlanCacheHits < 1 {
		t.Fatalf("plan cache hits = %d, want >= 1", snap.Query.PlanCacheHits)
	}
}

func TestAdmissionGateSheds(t *testing.T) {
	p := testPipeline(t)
	s := New(p, Options{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the single admission slot, then observe the shed.
	s.gate <- struct{}{}
	resp, err := ts.Client().Get(ts.URL + "/query?sql=SELECT+1+FROM+e_author")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response lacks Retry-After")
	}
	<-s.gate
	// Health stays ungated even when the gate is full.
	s.gate <- struct{}{}
	if code, _ := get(t, ts, "/healthz"); code != 200 {
		t.Fatalf("/healthz gated: %d", code)
	}
	<-s.gate
	if got := p.Obs.ServeShed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}

func TestRequestTimeout(t *testing.T) {
	p := testPipeline(t)
	s := New(p, Options{RequestTimeout: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/query?sql=SELECT+COUNT(*)+FROM+e_author")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request = %d %q, want 504", code, body)
	}
	if got := p.Obs.ServeTimeouts.Load(); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

// TestShutdownDrains starts a slow query, shuts the server down
// mid-flight, and requires the request to complete successfully: drain
// means zero failed in-flight requests.
func TestShutdownDrains(t *testing.T) {
	p := testPipeline(t)
	// Widen e_author so the drain query is slow enough to overlap the
	// shutdown: ~100 authors make the 3-way nested-loop join take a few
	// hundred milliseconds.
	doc, err := p.ParseDocument(paper.BookXML)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*xmltree.Document, 50)
	for i := range docs {
		docs[i] = doc
	}
	if _, err := p.LoadCorpus(docs, 4); err != nil {
		t.Fatal(err)
	}

	s := New(p, Options{RequestTimeout: 30 * time.Second})
	ts := httptest.NewServer(s.Handler())
	// No ts.Close(): Shutdown below owns the lifecycle.

	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL +
			"/query?sql=" + "SELECT+COUNT(*)+FROM+e_author+a,+e_author+b,+e_author+c+WHERE+a.id+%3C%3E+b.id+AND+b.id+%3C%3E+c.id")
		if err != nil {
			done <- result{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- result{resp.StatusCode, nil}
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the engine
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ts.Config.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("in-flight request failed during drain: %v", r.err)
		}
		if r.code != 200 {
			t.Fatalf("in-flight request = %d during drain, want 200", r.code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request never completed")
	}
}

func TestServeAndShutdownLifecycle(t *testing.T) {
	p := testPipeline(t)
	s := New(p, Options{})
	// Bind an ephemeral port through the real Serve/Shutdown path.
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		ln, err := newLocalListener()
		if err != nil {
			errCh <- err
			return
		}
		addrCh <- ln.Addr().String()
		errCh <- s.Serve(ln)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-errCh:
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

func newLocalListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// acceptNotifier signals each accepted connection.
type acceptNotifier struct {
	net.Listener
	accepted chan<- struct{}
}

func (l acceptNotifier) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		select {
		case l.accepted <- struct{}{}:
		default:
		}
	}
	return c, err
}

// TestShutdownClosesSilentConn: a client that opens a connection and
// never sends a request must not hold the drain open. net/http alone
// counts such a connection as busy for its first 5 s.
func TestShutdownClosesSilentConn(t *testing.T) {
	s := New(testPipeline(t), Options{})
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan struct{}, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- s.Serve(acceptNotifier{ln, accepted}) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("server never accepted the connection")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with one silent connection: %v", err)
	}
	if err := <-errCh; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestDisconnectReleasesCursorPin: a client that abandons a streaming
// /query mid-response must not keep the MVCC snapshot pinned open —
// the request-context guard in streamRows closes the cursor the
// moment the connection dies, so writers and the vacuum never wait on
// a dead client.
func TestDisconnectReleasesCursorPin(t *testing.T) {
	p := testPipeline(t)
	// A result comfortably larger than the response and socket buffers,
	// so the handler is still streaming when the client walks away.
	if _, err := p.SQL(`CREATE TABLE big (id INTEGER PRIMARY KEY, pad TEXT)`); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 256)
	rows := make([][]any, 20000)
	for i := range rows {
		rows[i] = []any{int64(i), pad}
	}
	if _, err := p.DB.InsertBatch("big", rows); err != nil {
		t.Fatal(err)
	}

	s := New(p, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /query?sql=SELECT+*+FROM+big HTTP/1.1\r\nHost: test\r\n\r\n")
	// Read just the response head, then stall: the handler fills the
	// buffers and blocks with its cursor open.
	buf := make([]byte, 1024)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "cursor pin to appear", func() bool { return p.DB.PinnedCursors() > 0 })

	// Abandon the connection; the pin must drop without the client ever
	// draining the response.
	conn.Close()
	waitFor(t, "cursor pin to be released after disconnect", func() bool {
		return p.DB.PinnedCursors() == 0
	})
}

// waitFor polls cond until it holds or a deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
