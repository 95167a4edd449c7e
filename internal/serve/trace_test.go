package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xmlrdb/internal/obs"
)

// TestRequestTraceEndToEnd drives a /query request with a caller-chosen
// X-Request-ID and asserts the full trace — serve root, engine.select,
// engine.plan and at least one operator span — is retrievable from the
// flight recorder at /debug/traces/{id}.
func TestRequestTraceEndToEnd(t *testing.T) {
	p := testPipeline(t)
	s := New(p, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/query?sql=SELECT+COUNT(*)+FROM+e_author", nil)
	req.Header.Set("X-Request-ID", "trace-e2e-1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drain(resp)
	if resp.StatusCode != 200 {
		t.Fatalf("/query = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "trace-e2e-1" {
		t.Fatalf("X-Request-ID echoed as %q", got)
	}

	code, body := get(t, ts, "/debug/traces/trace-e2e-1")
	if code != 200 {
		t.Fatalf("/debug/traces/{id} = %d %q", code, body)
	}
	var rec obs.TraceRecord
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if rec.ID != "trace-e2e-1" || rec.DurNS <= 0 {
		t.Fatalf("trace record = %+v", rec)
	}

	byName := map[string]obs.SpanRecord{}
	for _, sp := range rec.Spans {
		byName[sp.Name] = sp
	}
	root, ok := byName["serve.query"]
	if !ok || root.Parent != 0 {
		t.Fatalf("missing root serve.query span: %v", names(rec.Spans))
	}
	sel, ok := byName["engine.select"]
	if !ok {
		t.Fatalf("missing engine.select span: %v", names(rec.Spans))
	}
	if _, ok := byName["engine.plan"]; !ok {
		t.Fatalf("missing engine.plan span: %v", names(rec.Spans))
	}
	var opSpans int
	for _, sp := range rec.Spans {
		if !strings.HasPrefix(sp.Name, "op.") {
			continue
		}
		opSpans++
		if sp.Parent != sel.ID {
			t.Errorf("%s parented to %d, want engine.select %d", sp.Name, sp.Parent, sel.ID)
		}
		var hasRows bool
		for _, a := range sp.Attrs {
			if a.Key == "rows" {
				hasRows = true
			}
		}
		if !hasRows {
			t.Errorf("%s has no rows attr: %+v", sp.Name, sp.Attrs)
		}
	}
	if opSpans == 0 {
		t.Fatalf("no operator spans recorded: %v", names(rec.Spans))
	}

	// The listing shows the same trace.
	code, body = get(t, ts, "/debug/traces")
	if code != 200 || !strings.Contains(body, "trace-e2e-1") {
		t.Fatalf("/debug/traces = %d %q", code, body)
	}
}

// drain reads a response to EOF before closing it. The server records
// a request's trace before it writes the body's end, so a drained
// response guarantees the recorder already holds the trace.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func names(spans []obs.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestTraceSamplingOff proves TraceSample < 0 disables tracing: no
// trace header, nothing recorded.
func TestTraceSamplingOff(t *testing.T) {
	p := testPipeline(t)
	s := New(p, Options{TraceSample: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/query?sql=SELECT+COUNT(*)+FROM+e_author")
	if err != nil {
		t.Fatal(err)
	}
	drain(resp)
	if got := resp.Header.Get("X-Request-ID"); got != "" {
		t.Fatalf("untraced request got X-Request-ID %q", got)
	}
	if l := s.Recorder().List(); len(l) != 0 {
		t.Fatalf("recorder holds %d traces with sampling off", len(l))
	}
}

// TestTraceSamplingOneInN checks round-robin sampling records roughly
// 1/N of requests.
func TestTraceSamplingOneInN(t *testing.T) {
	p := testPipeline(t)
	s := New(p, Options{TraceSample: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 8; i++ {
		resp, err := ts.Client().Get(ts.URL + "/query?sql=SELECT+COUNT(*)+FROM+e_author")
		if err != nil {
			t.Fatal(err)
		}
		drain(resp)
	}
	if got := len(s.Recorder().List()); got != 2 {
		t.Fatalf("1-in-4 sampling over 8 requests recorded %d traces, want 2", got)
	}
}

// TestMetricsEndpoint asserts /metrics serves parseable Prometheus
// text after live traffic.
func TestMetricsEndpoint(t *testing.T) {
	p := testPipeline(t)
	s := New(p, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get(t, ts, "/query?sql=SELECT+COUNT(*)+FROM+e_author")
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	drain(resp)
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	_, body := get(t, ts, "/metrics")
	for _, want := range []string{
		"# TYPE xmlrdb_engine_selects_total counter",
		"xmlrdb_serve_requests_total",
		"xmlrdb_engine_exec_latency_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestQueryStatsEndpoint asserts /debug/querystats aggregates by
// fingerprint with est-vs-actual row accounting after live queries.
func TestQueryStatsEndpoint(t *testing.T) {
	p := testPipeline(t)
	s := New(p, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two literal variants of one shape plus a distinct shape.
	for _, q := range []string{
		"/query?sql=SELECT+*+FROM+e_author+WHERE+id+=+1",
		"/query?sql=SELECT+*+FROM+e_author+WHERE+id+=+2",
		"/query?sql=SELECT+COUNT(*)+FROM+e_book",
	} {
		if code, body := get(t, ts, q); code != 200 {
			t.Fatalf("%s = %d %q", q, code, body)
		}
	}

	code, body := get(t, ts, "/debug/querystats")
	if code != 200 {
		t.Fatalf("/debug/querystats = %d", code)
	}
	var stats []obs.QueryStatSnapshot
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("querystats not JSON: %v (%s)", err, body)
	}
	if len(stats) < 2 {
		t.Fatalf("querystats = %d shapes, want >= 2", len(stats))
	}
	var merged *obs.QueryStatSnapshot
	for i := range stats {
		if stats[i].Fingerprint == "SELECT * FROM e_author WHERE id = ?" {
			merged = &stats[i]
		}
	}
	if merged == nil {
		t.Fatalf("no merged fingerprint in %s", body)
	}
	if merged.Count != 2 {
		t.Fatalf("merged count = %d, want 2", merged.Count)
	}
	if len(merged.LastOps) == 0 {
		t.Fatalf("no per-operator digest: %+v", merged)
	}
}
