package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// sample is one completed request.
type sample struct {
	req   request
	lat   time.Duration // request sent to last body byte read
	bytes int
	err   string // "" when the reply was 200 and verified
}

// client is the one closed-loop keep-alive load generator: a request is
// sent only after the previous reply has been read and checked.
type client struct {
	base string
	http *http.Client
	b    *bench
	buf  bytes.Buffer
}

func newClient(base string, b *bench) *client {
	return &client{
		base: base,
		b:    b,
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		},
	}
}

// do issues one request, times it, then verifies the reply outside the
// timer. Every call is an attempted operation; a non-200 status, a
// timeout and a reply that disagrees with the oracle are failures.
func (c *client) do(r request) sample {
	s := sample{req: r}
	w0 := int(c.b.written.Load())
	t0 := time.Now()
	resp, err := c.http.Get(r.url(c.base))
	status := 0
	if err == nil {
		status = resp.StatusCode
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	s.lat = time.Since(t0)
	s.bytes = c.buf.Len()
	// A document the writer commits while the request runs may or may
	// not be visible to it, and the counter trails the commit by a moment.
	w1 := min(int(c.b.written.Load())+1, len(c.b.c.extra))
	switch {
	case err != nil:
		s.err = err.Error()
	case status != http.StatusOK:
		s.err = fmt.Sprintf("status %d: %.120s", status, c.buf.String())
	default:
		s.err = c.b.verify(r, c.buf.Bytes(), w0, w1)
	}
	c.b.attempt()
	if s.err != "" {
		c.b.failf("%s: %s", r.text, s.err)
	}
	return s
}

// runMix issues the weighted mix until d has passed, and at least
// minRequests so that a very short run still samples every class.
func (c *client) runMix(src *mixSource, d time.Duration) []sample {
	const minRequests = 60
	var out []sample
	for deadline := time.Now().Add(d); len(out) < minRequests || time.Now().Before(deadline); {
		out = append(out, c.do(src.draw()))
	}
	return out
}

// runClass issues n requests of one class back to back.
func (c *client) runClass(src *mixSource, class string, n int) []sample {
	out := make([]sample, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, c.do(src.drawClass(class)))
	}
	return out
}

// rowsReply is the body of /query and /path.
type rowsReply struct {
	Cols []string `json:"cols"`
	Rows [][]any  `json:"rows"`
	N    int      `json:"n"`
}

// verify checks a 200 reply against the oracle. w0 and w1 bound how many
// writer documents the request can have seen; with no writer running
// they are equal and every check is exact.
func (b *bench) verify(r request, body []byte, w0, w1 int) string {
	base := len(b.c.base)
	between := func(what string, got, lo, hi int) string {
		if got < lo || got > hi {
			if lo == hi {
				return fmt.Sprintf("%s: expected %d, got %d", what, lo, got)
			}
			return fmt.Sprintf("%s: expected %d..%d, got %d", what, lo, hi, got)
		}
		return ""
	}
	switch {
	case r.tmpl.kind == kindDoc:
		return b.sameDocument(r.k, string(body))
	case r.tmpl.kind == kindPath:
		n, err := replyRows(body, !b.seenFull[r.text])
		if err != nil {
			return err.Error()
		}
		b.seenFull[r.text] = true
		return between("rows", n, b.exp.rows(r.text, 0, base+w0), b.exp.rows(r.text, 0, base+w1))
	case r.tmpl.class == "point":
		var reply rowsReply
		if err := json.Unmarshal(body, &reply); err != nil {
			return "reply does not decode: " + err.Error()
		}
		d := b.c.base[r.k-1]
		want := fmt.Sprint([]any{float64(r.k), d.name, d.root})
		if len(reply.Rows) != 1 || fmt.Sprint(reply.Rows[0]) != want {
			return fmt.Sprintf("expected one row %s, got %v", want, reply.Rows)
		}
		return ""
	default: // aggregate: the COUNT(*) column adds up to the oracle's rows
		var reply rowsReply
		if err := json.Unmarshal(body, &reply); err != nil {
			return "reply does not decode: " + err.Error()
		}
		total := 0
		for _, row := range reply.Rows {
			n, ok := row[1].(float64)
			if !ok {
				return fmt.Sprintf("COUNT(*) is %T, not a number", row[1])
			}
			total += int(n)
		}
		return between("sum of COUNT(*)", total,
			b.exp.rows(r.tmpl.countPath, r.k, base+w0), b.exp.rows(r.tmpl.countPath, r.k, base+w1))
	}
}

// replyRows returns the number of rows in a /path reply. With full set
// it decodes the whole body and checks that the row array has as many
// entries as the trailing "n" says; otherwise it reads only "n", which is
// what keeps verifying a 100 000-row reply cheap after the first time.
func replyRows(body []byte, full bool) (int, error) {
	if full {
		var reply rowsReply
		if err := json.Unmarshal(body, &reply); err != nil {
			return 0, fmt.Errorf("reply does not decode: %w", err)
		}
		if len(reply.Rows) != reply.N {
			return 0, fmt.Errorf("reply holds %d rows but says n=%d", len(reply.Rows), reply.N)
		}
		return reply.N, nil
	}
	body = bytes.TrimSpace(body)
	i := bytes.LastIndex(body, []byte(`"n":`))
	if i < 0 || !bytes.HasSuffix(body, []byte("}")) {
		return 0, fmt.Errorf("reply has no trailing n: %.60q", body)
	}
	n, err := strconv.Atoi(string(body[i+4 : len(body)-1]))
	if err != nil {
		return 0, fmt.Errorf("reply has a malformed n: %w", err)
	}
	return n, nil
}

// classValue is a query class's latency: the mean, over the class's
// groups, of each group's trimmed mean (the fastest and the slowest
// tenth dropped). A group is a template, and for /doc/K also the root
// type of document K, whose sizes differ. A plain median over the class
// sits on the boundary between a fast and a slow group and jumps from run
// to run, and even one template is bimodal beside a writer (a read is
// fast until a commit invalidates what it cached); the trimmed mean moves
// smoothly with the share of slow reads and still ignores stray stalls.
type classValue struct {
	value float64 // ms
	n     int     // samples behind it
}

// group is the key latencies are grouped by before they are averaged.
type group struct {
	tmpl *template
	root string
}

func (b *bench) groupOf(r request) group {
	g := group{tmpl: r.tmpl}
	if r.tmpl.kind == kindDoc {
		g.root = b.c.base[r.k-1].root
	}
	return g
}

func (b *bench) classValues(samples []sample) map[string]classValue {
	by := map[group][]float64{}
	for _, s := range samples {
		g := b.groupOf(s.req)
		by[g] = append(by[g], ms(s.lat))
	}
	return classValuesOf(by)
}

// classValuesOf is classValues over values already grouped.
func classValuesOf(by map[group][]float64) map[string]classValue {
	means := map[string][]float64{}
	counts := map[string]int{}
	for g, xs := range by {
		means[g.tmpl.class] = append(means[g.tmpl.class], trimmedMean(xs, 0.1))
		counts[g.tmpl.class] += len(xs)
	}
	out := map[string]classValue{}
	for class, xs := range means {
		out[class] = classValue{value: mean(xs), n: counts[class]}
	}
	return out
}
