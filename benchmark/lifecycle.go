package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xmlrdb"
	"xmlrdb/internal/core"
	"xmlrdb/internal/engine"
	"xmlrdb/internal/ermap"
	"xmlrdb/internal/meta"
	"xmlrdb/internal/obs"
	"xmlrdb/internal/reconstruct"
	"xmlrdb/internal/serve"
	"xmlrdb/internal/shred"
	"xmlrdb/internal/validate"
	"xmlrdb/internal/xmltree"
)

// workload fixes the inputs of one benchmark workload. Every workload
// runs the same lifecycle — load, serve, write, recover, reconstruct —
// so every end-to-end metric exists on every workload; the workloads
// differ in the corpus and in whether the writer runs beside the reader.
type workload struct {
	name          string
	corpus        string
	docs          int           // documents loaded in the load phase
	chunk         int           // documents per LoadCorpusContext call
	snapshotEvery int           // WAL frames between automatic snapshots
	mixed         bool          // the writer runs during the request mix
	writerDocs    int           // documents written when the writer runs alone
	writerPerSec  int           // extra documents generated per mix second (mixed)
	think         time.Duration // writer think time beside the reader
	reconSample   int           // documents reconstructed and verified
	descReqs      int           // sequential desc requests
}

var workloads = []workload{
	{
		name:   "bib_read",
		corpus: "bib", docs: 6000, chunk: 64, snapshotEvery: 2000,
		writerDocs: 1000, reconSample: 300, descReqs: 6,
	},
	{
		name:   "bib_mixed",
		corpus: "bib", docs: 6000, chunk: 64, snapshotEvery: 2000,
		mixed: true, writerPerSec: 170, think: 5 * time.Millisecond, reconSample: 300, descReqs: 6,
	},
	{
		name:   "orders_read",
		corpus: "orders", docs: 250, chunk: 8, snapshotEvery: 80,
		writerDocs: 200, reconSample: 60, descReqs: 6,
	},
}

const (
	setupReps   = 3  // corpus generations per run; setup_s uses their median
	recoverReps = 5  // reopenings per run at least; recover_s is their median
	reconBatch  = 20 // reconstructions per throughput sample
	warmupReps  = 2  // warm-up requests per distinct query text
)

// runConfig is one invocation's arguments.
type runConfig struct {
	workload workload
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	dir      string // parent of the store directory
	traceOut string
}

// scaled applies -scale to a count, keeping at least min.
func (c runConfig) scaled(n, min int) int {
	v := int(float64(n)*c.scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// bench is the state of one run.
type bench struct {
	cfg   runConfig
	w     workload
	c     *corpus
	exp   *expectations
	tmpls []template
	res   *result

	storeDir string
	p        *xmlrdb.Pipeline
	val      *validate.Validator
	loadT    *track // nil when untraced
	writeT   *track
	fs       *timedFS
	written  atomic.Int64 // writer documents committed so far
	seenFull map[string]bool
	// setupParts are the seconds of each set-up step; setup_s is their sum.
	setupParts []float64
}

func (b *bench) attempt() { b.res.Attempted++ }

func (b *bench) failf(format string, args ...any) {
	b.res.Failed++
	if len(b.res.Failures) < 40 {
		b.res.Failures = append(b.res.Failures, fmt.Sprintf(format, args...))
	}
}

// run executes the workload's lifecycle once and returns its result.
func run(cfg runConfig) (*result, error) {
	b := &bench{cfg: cfg, w: cfg.workload, res: newResult(cfg), seenFull: map[string]bool{}}
	if cfg.trace {
		b.loadT, b.writeT = newTrack("load"), newTrack("writer")
	}
	start := time.Now()
	if err := b.lifecycle(); err != nil {
		if b.p != nil {
			b.p.Close()
		}
		if b.storeDir != "" {
			os.RemoveAll(b.storeDir)
		}
		return nil, err
	}
	b.res.WallS = time.Since(start).Seconds()
	b.res.Correct = b.res.Failed == 0
	if cfg.trace && cfg.traceOut != "" {
		if err := writeTracks(cfg.traceOut, []*track{b.loadT, b.writeT}); err != nil {
			return nil, err
		}
	}
	return b.res, nil
}

func (b *bench) lifecycle() error {
	if err := b.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	dir, err := os.MkdirTemp(b.cfg.dir, "bench-store-")
	if err != nil {
		return err
	}
	b.storeDir = dir
	b.res.Env.StoreFS = storeFS(dir)
	measureStart := time.Now()
	if err := b.loadPhase(); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	loadElapsed := time.Since(measureStart)
	if err := b.servePhase(loadElapsed); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := b.recoverPhase(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if err := b.reconstructPhase(); err != nil {
		return fmt.Errorf("reconstruct: %w", err)
	}
	if err := b.p.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	stored, err := dirBytes(dir)
	if err != nil {
		return err
	}
	loadedBytes := xmlBytes(b.c.base) + xmlBytes(b.c.extra[:b.written.Load()])
	b.res.set("store_bytes_per_xml_byte", float64(stored)/float64(loadedBytes), "B/B", 1)
	err = b.p.Close()
	b.p = nil
	if err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// setup generates the corpus and the oracle's expected row counts
// setupReps times and charges their median to setup_s: nothing here
// touches the program under test, but it is work every run pays before
// measuring, so it is reported.
func (b *bench) setup() error {
	nBase := b.cfg.scaled(b.w.docs, 8)
	nExtra := b.cfg.scaled(b.w.writerDocs, 20)
	if b.w.mixed {
		nExtra = int(float64(b.w.writerPerSec)*b.cfg.seconds) + 20
	}
	var times []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		c, err := generateCorpus(b.w.corpus, b.cfg.seed, nBase, nExtra)
		if err != nil {
			return err
		}
		tmpls := templatesFor(b.w.corpus)
		exp, err := buildExpectations(c, tmpls)
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		b.c, b.tmpls, b.exp = c, tmpls, exp
	}
	b.res.Corpus = b.c.info
	b.setupParts = append(b.setupParts, median(times))
	b.val = validate.New(b.c.dtd)
	return nil
}

// openStore opens the store directory the way the product does. The
// traced load instead assembles the same stack from the public
// constructors OpenDTD calls, because Config has no filesystem seam to
// time the WAL through; the smoke test checks the two stay equivalent.
func (b *bench) openStore() (*xmlrdb.Pipeline, error) {
	return xmlrdb.OpenDTD(b.c.dtd, xmlrdb.Config{DataDir: b.storeDir, SnapshotEvery: b.w.snapshotEvery})
}

// loadStack is what the load loop needs from either stack.
type loadStack struct {
	hub     *obs.Metrics
	db      *engine.DB
	timed   *timedEngine // nil on the untraced stack
	load    func(ctx context.Context, docs []*xmltree.Document, names []string) error
	analyze func() error
	close   func() error
}

func (b *bench) untracedStack() (*loadStack, error) {
	p, err := b.openStore()
	if err != nil {
		return nil, err
	}
	b.p = p
	return &loadStack{
		hub: p.Obs, db: p.DB,
		load: func(ctx context.Context, docs []*xmltree.Document, names []string) error {
			_, err := p.LoadCorpusContext(ctx, docs, names, 1)
			return err
		},
		analyze: p.Analyze,
		close:   func() error { b.p = nil; return p.Close() },
	}, nil
}

func (b *bench) tracedStack() (*loadStack, error) {
	hub := obs.New()
	res, err := core.MapWith(b.c.dtd, core.Options{})
	if err != nil {
		return nil, err
	}
	m, err := ermap.Build(res.Model, ermap.Options{})
	if err != nil {
		return nil, err
	}
	b.fs = &timedFS{t: b.loadT}
	db, err := engine.OpenAtOpts(b.storeDir, engine.DurabilityOptions{SnapshotEvery: b.w.snapshotEvery, Metrics: hub, FS: b.fs})
	if err != nil {
		return nil, err
	}
	if err := db.CreateSchema(m.Schema); err != nil {
		return nil, err
	}
	if err := meta.Store(db, res, m); err != nil {
		return nil, err
	}
	te := &timedEngine{DB: db, t: b.loadT}
	loader, err := shred.NewLoader(res, m, te)
	if err != nil {
		return nil, err
	}
	loader.SetObserver(hub, nil)
	return &loadStack{
		hub: hub, db: db, timed: te,
		load: func(ctx context.Context, docs []*xmltree.Document, names []string) error {
			b.loadT.begin("shred.load")
			defer b.loadT.end()
			_, err := loader.LoadCorpusContext(ctx, docs, names, 1)
			return err
		},
		analyze: db.Analyze,
		close:   db.Close,
	}, nil
}

// loadPhase loads the base documents into an empty durable store through
// the document-atomic path xmlshred -data-dir uses: parse, validate,
// LoadCorpusContext with one worker, one WAL frame per document.
func (b *bench) loadPhase() error {
	heapBefore := heapAfterGC()
	open := b.untracedStack
	if b.cfg.trace {
		open = b.tracedStack
	}
	st, err := open()
	if err != nil {
		return err
	}
	wal0 := walCountsOf(st.hub)
	ctx := context.Background()
	docs := b.c.base
	var perChunk []float64 // documents per second, one value per chunk
	t0 := time.Now()
	b.loadT.begin("load")
	for i := 0; i < len(docs); i += b.w.chunk {
		end := min(i+b.w.chunk, len(docs))
		b.loadT.setOp(i / b.w.chunk)
		c0 := time.Now()
		trees, names, err := b.parseAndValidate(docs[i:end], b.loadT)
		if err != nil {
			return err
		}
		if err := st.load(ctx, trees, names); err != nil {
			return err
		}
		perChunk = append(perChunk, float64(end-i)/time.Since(c0).Seconds())
	}
	b.loadT.end()
	wall := time.Since(t0)
	b.res.Attempted += len(docs)
	wal1 := walCountsOf(st.hub)
	heapAfter := heapAfterGC()
	xmlB := float64(xmlBytes(docs))
	b.res.Phases["load_s"] = wall.Seconds()
	// The median chunk, not documents over wall: document sizes have a
	// long tail and a chunk that triggers a snapshot stalls, so the total
	// moves with the seed and the host; snapshot cost is a layer metric.
	b.res.set("load_docs_per_s", median(perChunk), "1/s", len(perChunk))
	b.res.Phases["load_docs_per_wall_s"] = float64(len(docs)) / wall.Seconds()
	b.res.set("wal_bytes_per_xml_byte", float64(wal1.bytes-wal0.bytes)/xmlB, "B/B", 1)
	b.res.set("heap_bytes_per_xml_byte", (float64(heapAfter)-float64(heapBefore))/xmlB, "B/B", 1)
	b.res.Counts = loadCounts{
		Rows:      tableRows(st.db),
		WALFrames: wal1.frames - wal0.frames,
		WALBytes:  wal1.bytes - wal0.bytes,
		WALFsyncs: wal1.fsyncs - wal0.fsyncs,
	}

	t1 := time.Now()
	if err := st.analyze(); err != nil {
		return err
	}
	analyze := time.Since(t1)
	b.setupParts = append(b.setupParts, analyze.Seconds())
	if b.cfg.trace {
		b.loadLayers(wall, analyze, st.timed, wal0, wal1)
	}
	// Serve what xmlserve would: the store reopened from its directory,
	// not the loader's heap. (The traced stack has no Pipeline to serve.)
	if err := st.close(); err != nil {
		return err
	}
	b.p, err = b.openStore()
	return err
}

// parseAndValidate turns documents into the trees the loader takes. An
// invalid document would be a generator bug, so it is an error, not a
// failed operation.
func (b *bench) parseAndValidate(docs []document, t *track) ([]*xmltree.Document, []string, error) {
	trees := make([]*xmltree.Document, len(docs))
	names := make([]string, len(docs))
	for i, d := range docs {
		t.begin("xmltree.parse")
		tree, err := xmltree.ParseWith(d.xml, xmltree.Options{ExternalDTD: b.c.dtd})
		t.end()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", d.name, err)
		}
		t.begin("validate.validate")
		viols := b.val.Validate(tree)
		t.end()
		if len(viols) > 0 {
			return nil, nil, fmt.Errorf("%s: invalid: %s", d.name, viols[0])
		}
		trees[i], names[i] = tree, d.name
	}
	return trees, names, nil
}

// servePhase serves the store over a loopback listener and drives it
// with one closed-loop keep-alive client: warm-up, the weighted mix for
// the time the run has left, the sequential desc requests, and the
// writer — beside the mix on a mixed workload, alone after it otherwise.
func (b *bench) servePhase(loadElapsed time.Duration) error {
	traceSample := -1
	if b.cfg.trace {
		traceSample = 1
	}
	t0 := time.Now()
	srv := serve.New(b.p, serve.Options{TraceSample: traceSample})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		return err
	}
	cl := newClient("http://"+ln.Addr().String(), b)
	warmDesc, err := b.warmUp(cl)
	if err != nil {
		stop()
		return err
	}
	b.setupParts = append(b.setupParts, time.Since(t0).Seconds())
	b.res.set("setup_s", sum(b.setupParts), "s", setupReps)

	// The run measures for cfg.seconds in all: the fixed-work phases take
	// what they take and the mix gets the rest, but never less than 30%.
	total := time.Duration(b.cfg.seconds * float64(time.Second))
	fixed := time.Duration(b.w.descReqs)*warmDesc + total*15/100
	mixFor := max(total-loadElapsed-fixed, total*30/100)
	if b.cfg.trace {
		// The traced run spends the rest of the mix's time replaying the
		// same requests in-process, stage by stage.
		mixFor = mixFor * 30 / 100
	}

	src := newMixSource(b.cfg.seed, b.tmpls, len(b.c.base))
	var wg sync.WaitGroup
	stopWriter := make(chan struct{})
	var writeLat []float64
	var writeErr error
	if b.w.mixed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writeLat, writeErr = b.writer(stopWriter, len(b.c.extra), b.w.think)
		}()
	}
	mix := cl.runMix(src, mixFor)
	close(stopWriter)
	wg.Wait()
	if writeErr != nil {
		stop()
		return writeErr
	}
	descReqs := b.cfg.scaled(b.w.descReqs, 2)
	if b.cfg.trace {
		descReqs = 2 // each is replayed twice more in-process
	}
	desc := cl.runClass(src, "desc", descReqs)
	if b.cfg.trace {
		// Before the writer runs alone, so that the store is the one the
		// HTTP requests saw. (On a mixed workload it has already grown.)
		b.replay(mix, desc)
	}
	if !b.w.mixed {
		if writeLat, writeErr = b.writer(nil, len(b.c.extra), 0); writeErr != nil {
			stop()
			return writeErr
		}
	}
	b.res.Attempted += len(writeLat)
	b.serveMetrics(mix, desc, writeLat)
	if b.cfg.trace {
		b.writeLayers()
	}
	return stop()
}

// warmUp issues every distinct query text warmupReps times (desc once),
// so plan-cache fills and lazily built column sidecars are not in the
// timed part, and returns how long one desc request took.
func (b *bench) warmUp(cl *client) (time.Duration, error) {
	src := newMixSource(b.cfg.seed+1, b.tmpls, len(b.c.base))
	var warmDesc time.Duration
	for i := range b.tmpls {
		t := &b.tmpls[i]
		reps := warmupReps
		if t.class == "desc" {
			reps = 1
		}
		for _, text := range t.variants() {
			for r := 0; r < reps; r++ {
				req := src.instantiateVariant(t, text)
				s := cl.do(req)
				if s.err != "" {
					return 0, fmt.Errorf("warm-up %s: %s", req.text, s.err)
				}
				if t.class == "desc" {
					warmDesc = s.lat
				}
			}
		}
	}
	return warmDesc, nil
}

// writer loads the writer documents one per call — parse, validate,
// LoadCorpusNamed — until n are written or stop closes, sleeping think
// between documents, and returns each document's latency in ms. On the
// traced run it goes through a second, timed loader over the same
// engine, seeded past the ids the store already holds.
func (b *bench) writer(stop <-chan struct{}, n int, think time.Duration) ([]float64, error) {
	load := func(trees []*xmltree.Document, names []string) error {
		_, err := b.p.LoadCorpusNamed(trees, names, 1)
		return err
	}
	if b.cfg.trace {
		te := &timedEngine{DB: b.p.DB, t: b.writeT}
		loader, err := shred.NewLoader(b.p.Result, b.p.Mapping, te)
		if err != nil {
			return nil, err
		}
		if err := loader.ResumeFrom(b.p.DB); err != nil {
			return nil, err
		}
		load = func(trees []*xmltree.Document, names []string) error {
			b.writeT.begin("shred.load")
			defer b.writeT.end()
			_, err := loader.LoadCorpusNamed(trees, names, 1)
			return err
		}
	}
	var lat []float64
	for i := 0; i < n; i++ {
		select {
		case <-stop:
			return lat, nil
		default:
		}
		b.writeT.setOp(i)
		t0 := time.Now()
		trees, names, err := b.parseAndValidate(b.c.extra[i:i+1], b.writeT)
		if err != nil {
			return nil, err
		}
		if err := load(trees, names); err != nil {
			return nil, err
		}
		lat = append(lat, ms(time.Since(t0)))
		b.written.Add(1)
		if think > 0 {
			time.Sleep(think)
		}
	}
	return lat, nil
}

// serveMetrics turns the client's samples into the serve-side
// end-to-end metrics.
func (b *bench) serveMetrics(mix, desc []sample, writeLat []float64) {
	var all []float64
	busy := 0.0
	for _, s := range mix {
		all = append(all, ms(s.lat))
		busy += s.lat.Seconds()
	}
	// One closed-loop client: throughput is requests over the time the
	// client spent waiting for replies, so checking them costs nothing.
	b.res.set("req_per_s", float64(len(mix))/busy, "1/s", len(mix))
	b.res.set("req_p95_ms", quantile(all, 0.95), "ms", len(all))
	by := b.classValues(append(append([]sample(nil), mix...), desc...))
	for _, class := range allClasses {
		v := by[class]
		b.res.set("q_"+class+"_ms", v.value, "ms", v.n)
	}
	b.res.set("write_doc_p50_ms", median(writeLat), "ms", len(writeLat))
	b.res.Phases["write_doc_p95_ms"] = quantile(writeLat, 0.95)
	b.res.Phases["mix_requests"] = float64(len(mix))
	b.res.Phases["mix_busy_s"] = busy
	b.res.Phases["writer_docs"] = float64(len(writeLat))
}

// recoverPhase closes the store and reopens it recoverReps times (cold
// recovery: newest snapshot, WAL tail, id reseeding), checking that every
// table has the rows it had before Close.
func (b *bench) recoverPhase() error {
	before := tableRows(b.p.DB)
	mapRes, mapping := b.p.Result, b.p.Mapping
	var times []float64
	// A bib store reopens in 50 ms, too short to time five times only.
	for i := 0; i < recoverReps || (i < 4*recoverReps && sum(times) < 1); i++ {
		err := b.p.Close()
		b.p = nil
		if err != nil {
			return err
		}
		if b.cfg.trace && i == 0 {
			if err := b.recoverLayers(mapRes, mapping); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if b.p, err = b.openStore(); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		b.attempt()
		after := tableRows(b.p.DB)
		for name, n := range before {
			if after[name] != n {
				b.failf("recover %d: table %s has %d rows, had %d before Close", i, name, after[name], n)
				break
			}
		}
	}
	b.res.set("recover_s", median(times), "s", len(times))
	return nil
}

// reconstructPhase rebuilds a seeded sample of the base documents and
// verifies each against its original outside the timer.
func (b *bench) reconstructPhase() error {
	rng := rand.New(rand.NewSource(b.cfg.seed + 2))
	n := b.cfg.scaled(b.w.reconSample, 5)
	var rc *reconstruct.Reconstructor
	var rows0 int64
	if b.cfg.trace {
		rc = reconstruct.New(b.p.Result, b.p.Mapping, b.p.DB)
		rows0 = scannedRows(b.p)
	}
	var perBatch []float64 // documents per second, one value per reconBatch documents
	var batch time.Duration
	var build, render []float64
	for i := 0; i < n; i++ {
		id := 1 + rng.Intn(len(b.c.base))
		var text string
		var err error
		t0 := time.Now()
		if rc != nil {
			var tree *xmltree.Document
			tree, err = rc.Document(int64(id))
			t1 := time.Now()
			if err == nil {
				text = tree.Render(xmltree.WriteOptions{})
				build = append(build, us(t1.Sub(t0)))
				render = append(render, us(time.Since(t1)))
			}
		} else {
			text, err = b.p.Reconstruct(int64(id))
		}
		batch += time.Since(t0)
		if (i+1)%reconBatch == 0 || i == n-1 {
			perBatch = append(perBatch, float64(i%reconBatch+1)/batch.Seconds())
			batch = 0
		}
		b.attempt()
		if err != nil {
			b.failf("reconstruct %d: %v", id, err)
			continue
		}
		if msg := b.sameDocument(id, text); msg != "" {
			b.failf("reconstruct %d: %s", id, msg)
		}
	}
	b.res.set("reconstruct_docs_per_s", median(perBatch), "1/s", len(perBatch))
	if rc != nil {
		b.res.set("reconstruct.build_us", median(build), "us", len(build))
		b.res.set("xmltree.serialize_us", median(render), "us", len(render))
		b.res.set("engine.rows_scanned_per_recon_doc", float64(scannedRows(b.p)-rows0)/float64(n), "count", n)
	}
	return nil
}

// sameDocument compares XML text with base document id's original,
// ignoring what the mapping does not store (comments, PIs,
// whitespace-only text, attribute order). It returns "" when they agree.
func (b *bench) sameDocument(id int, text string) string {
	orig, err := xmltree.ParseWith(b.c.base[id-1].xml, xmltree.Options{ExternalDTD: b.c.dtd})
	if err != nil {
		return "original does not parse: " + err.Error()
	}
	got, err := xmltree.Parse(text)
	if err != nil {
		return "result does not parse: " + err.Error()
	}
	opts := xmltree.EqualOptions{IgnoreComments: true, IgnorePIs: true, IgnoreWhitespaceText: true, IgnoreAttrOrder: true}
	if !xmltree.Equal(orig.Root, got.Root, opts) {
		return fmt.Sprintf("differs from the original: expected %d bytes %.80q, got %d bytes %.80q",
			len(b.c.base[id-1].xml), b.c.base[id-1].xml, len(text), text)
	}
	return ""
}

func tableRows(db *engine.DB) map[string]int {
	out := map[string]int{}
	for _, name := range db.TableNames() {
		out[name] = db.RowCount(name)
	}
	return out
}

// scannedRows is the total of the per-table rows-scanned counters.
func scannedRows(p *xmlrdb.Pipeline) int64 {
	var n int64
	for _, t := range p.MetricsSnapshot().Tables {
		n += t.RowsScanned
	}
	return n
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
