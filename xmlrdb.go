// Package xmlrdb integrates XML data with relational databases,
// reproducing Lee, Mitchell and Zhang, "Integrating XML Data with
// Relational Databases" (2000).
//
// The package is the public façade over the full pipeline:
//
//	DTD text ──parse──▶ logical DTD ──Figure-1 algorithm──▶ ER model
//	       ──[EN89]──▶ relational schema (+ §5 metadata tables)
//	       ──DOM traversal──▶ shredded rows ──SQL / path queries──▶ results
//	       ──ordinals + metadata──▶ reconstructed XML documents
//
// Quick start:
//
//	p, err := xmlrdb.Open(dtdText, xmlrdb.Config{})
//	docID, err := p.LoadXML(xmlText, "doc-1")
//	rows, err := p.Query("/book/author[@id='a1']")
//	xml, err := p.Reconstruct(docID)
package xmlrdb

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xmlrdb/internal/core"
	"xmlrdb/internal/dtd"
	"xmlrdb/internal/engine"
	"xmlrdb/internal/ermap"
	"xmlrdb/internal/meta"
	"xmlrdb/internal/obs"
	"xmlrdb/internal/pathquery"
	"xmlrdb/internal/reconstruct"
	"xmlrdb/internal/rel"
	"xmlrdb/internal/shred"
	"xmlrdb/internal/validate"
	"xmlrdb/internal/xmltree"
)

// Strategy selects how ER relationships map to tables.
type Strategy = ermap.Strategy

// Relational translation strategies.
const (
	// StrategyJunction gives every relationship its own table (default).
	StrategyJunction = ermap.StrategyJunction
	// StrategyFoldFK folds single-parent nesting relationships into
	// foreign keys on the child table.
	StrategyFoldFK = ermap.StrategyFoldFK
)

// Rows is a materialized query result.
type Rows = engine.Rows

// Cursor is a streaming query result: rows arrive one at a time as the
// caller pulls them, so early termination (LIMIT, a disconnected
// client) never pays for unread rows. Callers that may abandon a
// cursor must Close it; draining it closes it implicitly.
type Cursor = engine.Cursor

// Violation is one validity problem found by Validate.
type Violation = validate.Violation

// Config tunes pipeline construction.
type Config struct {
	// Strategy selects the relational translation (default junction).
	Strategy Strategy
	// SkipDistill disables the mapping's attribute-distilling step 2.
	SkipDistill bool
	// SkipMetaTables omits the §5 metadata tables.
	SkipMetaTables bool
	// DataDir, when non-empty, opens a durable store rooted there:
	// committed mutations are write-ahead logged, and reopening the same
	// directory recovers every previously loaded document (id sequences
	// resume past the recovered rows). Empty means in-memory only.
	DataDir string
	// SnapshotEvery snapshots the store (truncating the log) after this
	// many WAL frames; 0 disables automatic snapshots. Only meaningful
	// with DataDir.
	SnapshotEvery int
	// PlanCacheSize bounds the LRU translation (plan) cache used by
	// Query/ExplainPath: 0 selects the default capacity
	// (pathquery.DefaultCacheSize entries), negative disables caching.
	PlanCacheSize int
}

// Pipeline is a mapped DTD with its relational store: the end-to-end
// system of the paper.
type Pipeline struct {
	// DTD is the parsed source DTD.
	DTD *dtd.DTD
	// Result is the Figure-1 mapping output (converted DTD, ER model,
	// metadata).
	Result *core.Result
	// Mapping is the ER-to-relational translation.
	Mapping *ermap.Mapping
	// DB is the embedded relational engine holding the shredded data.
	DB *engine.DB
	// Obs is the pipeline's metrics hub: every subsystem (engine, shred,
	// pathquery, reconstruct) records into it. Snapshot it with
	// MetricsSnapshot, or read counters directly.
	Obs *obs.Metrics

	loader     *shred.Loader
	translator *pathquery.ERTranslator
	// qt is the translator Query/ExplainPath go through: the plan cache
	// when enabled, else the raw translator. planCache points at the
	// cache itself (nil when disabled) so ANALYZE can evict it.
	qt        pathquery.Translator
	planCache *pathquery.Cache
	recon     *reconstruct.Reconstructor
	validator *validate.Validator
}

// Open parses a DTD, runs the mapping algorithm, creates the relational
// schema (and metadata tables) in a fresh in-memory engine, and returns
// the ready pipeline.
func Open(dtdText string, cfg Config) (*Pipeline, error) {
	d, err := dtd.Parse(dtdText)
	if err != nil {
		return nil, err
	}
	return OpenDTD(d, cfg)
}

// OpenDTD is Open for an already-parsed DTD.
func OpenDTD(d *dtd.DTD, cfg Config) (*Pipeline, error) {
	hub := obs.New()
	start := time.Now()
	res, err := core.MapWith(d, core.Options{SkipDistill: cfg.SkipDistill})
	if err != nil {
		return nil, err
	}
	m, err := ermap.Build(res.Model, ermap.Options{Strategy: cfg.Strategy})
	if err != nil {
		return nil, err
	}
	var db *engine.DB
	resumed := false
	if cfg.DataDir != "" {
		db, err = engine.OpenAtOpts(cfg.DataDir, engine.DurabilityOptions{
			SnapshotEvery: cfg.SnapshotEvery,
			Metrics:       hub,
		})
		if err != nil {
			return nil, err
		}
		resumed = len(db.TableNames()) > 0
	} else {
		db = engine.Open()
		db.SetMetrics(hub)
	}
	if resumed {
		// Recovered store: the schema already exists; it must match the
		// mapping this pipeline was opened with — same columns, types and
		// constraints, not merely the same table names (a different DTD
		// can map to identically named tables whose rows would then be
		// silently misinterpreted).
		for _, t := range m.Schema.Tables {
			have := db.TableDef(t.Name)
			if have == nil {
				return nil, fmt.Errorf("xmlrdb: data directory %s does not match this DTD: missing table %q",
					cfg.DataDir, t.Name)
			}
			if why := tableMismatch(have, t); why != "" {
				return nil, fmt.Errorf("xmlrdb: data directory %s does not match this DTD: table %q %s",
					cfg.DataDir, t.Name, why)
			}
		}
	} else {
		if err := db.CreateSchema(m.Schema); err != nil {
			return nil, err
		}
		if !cfg.SkipMetaTables {
			if err := meta.Store(db, res, m); err != nil {
				return nil, err
			}
		}
	}
	hub.SchemaBuilds.Inc()
	hub.SchemaBuildLatency.ObserveDuration(time.Since(start))
	loader, err := shred.NewLoader(res, m, db)
	if err != nil {
		return nil, err
	}
	if resumed {
		if err := loader.ResumeFrom(db); err != nil {
			return nil, err
		}
	}
	loader.SetObserver(hub, nil)
	translator := pathquery.NewERTranslator(res, m)
	translator.SetObserver(hub, nil)
	var qt pathquery.Translator = translator
	var planCache *pathquery.Cache
	if cfg.PlanCacheSize >= 0 {
		planCache = pathquery.NewCache(translator, cfg.PlanCacheSize)
		planCache.SetObserver(hub)
		// Version every cache key with the statistics epoch: plans
		// compiled before an ANALYZE stop being served the moment fresher
		// statistics land.
		planCache.SetEpochSource(db.StatsEpoch)
		qt = planCache
	}
	recon := reconstruct.New(res, m, db)
	recon.SetObserver(hub, nil)
	return &Pipeline{
		DTD:        d,
		Result:     res,
		Mapping:    m,
		DB:         db,
		Obs:        hub,
		loader:     loader,
		translator: translator,
		qt:         qt,
		planCache:  planCache,
		recon:      recon,
		validator:  validate.New(d),
	}, nil
}

// tableMismatch reports the first structural difference between a
// recovered table definition and the one the mapping expects, or "" when
// they agree. Comments are provenance text, not structure, and are
// ignored; everything that affects how rows are written or read —
// columns, types, NOT NULL, primary key, uniques, foreign keys — must
// match exactly.
func tableMismatch(have, want *rel.Table) string {
	if len(have.Columns) != len(want.Columns) {
		return fmt.Sprintf("has %d columns, want %d", len(have.Columns), len(want.Columns))
	}
	for i, wc := range want.Columns {
		if have.Columns[i] != wc {
			return fmt.Sprintf("column %d is %s %s (not null: %v), want %s %s (not null: %v)",
				i, have.Columns[i].Name, have.Columns[i].Type, have.Columns[i].NotNull,
				wc.Name, wc.Type, wc.NotNull)
		}
	}
	if !sameStrings(have.PrimaryKey, want.PrimaryKey) {
		return fmt.Sprintf("primary key is %v, want %v", have.PrimaryKey, want.PrimaryKey)
	}
	if len(have.Uniques) != len(want.Uniques) {
		return fmt.Sprintf("has %d unique constraints, want %d", len(have.Uniques), len(want.Uniques))
	}
	for i := range want.Uniques {
		if !sameStrings(have.Uniques[i], want.Uniques[i]) {
			return fmt.Sprintf("unique constraint %d is %v, want %v", i, have.Uniques[i], want.Uniques[i])
		}
	}
	if len(have.ForeignKeys) != len(want.ForeignKeys) {
		return fmt.Sprintf("has %d foreign keys, want %d", len(have.ForeignKeys), len(want.ForeignKeys))
	}
	for i, wfk := range want.ForeignKeys {
		hfk := have.ForeignKeys[i]
		if hfk.RefTable != wfk.RefTable || !sameStrings(hfk.Columns, wfk.Columns) ||
			!sameStrings(hfk.RefColumns, wfk.RefColumns) {
			return fmt.Sprintf("foreign key %d is %v -> %s%v, want %v -> %s%v",
				i, hfk.Columns, hfk.RefTable, hfk.RefColumns, wfk.Columns, wfk.RefTable, wfk.RefColumns)
		}
	}
	return ""
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SetTracer attaches a tracer to every pipeline subsystem (nil
// detaches). Set it before concurrent use.
func (p *Pipeline) SetTracer(tr obs.Tracer) {
	p.DB.SetTracer(tr)
	p.loader.SetObserver(p.Obs, tr)
	p.translator.SetObserver(p.Obs, tr)
	p.recon.SetObserver(p.Obs, tr)
}

// SetSlowQueryThreshold makes the engine emit a slow-query trace event
// (and count it) for statements at or above d; zero disables.
func (p *Pipeline) SetSlowQueryThreshold(d time.Duration) {
	p.DB.SetSlowQueryThreshold(d)
}

// MetricsSnapshot returns a point-in-time copy of all pipeline metrics.
func (p *Pipeline) MetricsSnapshot() obs.Snapshot { return p.Obs.Snapshot() }

// MetricsReport renders the pipeline metrics as the human-readable
// -stats report.
func (p *Pipeline) MetricsReport() string { return p.Obs.Snapshot().Report() }

// LoadXML validates nothing beyond the mapping's own checks and shreds
// one XML document into the store, returning its document id. Like
// every load method it commits the document atomically: one engine
// batch — on a durable store one WAL frame and one fsync — or, on
// error, nothing.
func (p *Pipeline) LoadXML(src, name string) (int64, error) {
	st, err := p.loader.LoadXML(src, name)
	if err != nil {
		return 0, err
	}
	return st.DocID, nil
}

// LoadValidXML validates the document against the DTD first and only
// shreds it when it is valid; otherwise the violations are returned as
// one error.
func (p *Pipeline) LoadValidXML(src, name string) (int64, error) {
	doc, err := xmltree.ParseWith(src, xmltree.Options{ExternalDTD: p.DTD})
	if err != nil {
		return 0, err
	}
	if viols := p.validator.Validate(doc); len(viols) > 0 {
		msgs := make([]string, len(viols))
		for i, v := range viols {
			msgs[i] = v.String()
		}
		return 0, fmt.Errorf("xmlrdb: document %q is invalid:\n  %s",
			name, strings.Join(msgs, "\n  "))
	}
	st, err := p.loader.LoadDocument(doc, name)
	if err != nil {
		return 0, err
	}
	return st.DocID, nil
}

// LoadDocument shreds an already-parsed document.
func (p *Pipeline) LoadDocument(doc *xmltree.Document, name string) (int64, error) {
	st, err := p.loader.LoadDocument(doc, name)
	if err != nil {
		return 0, err
	}
	return st.DocID, nil
}

// ParseDocument parses XML text against the pipeline's DTD (applying
// declared attribute defaults) without loading it — the input form
// LoadCorpus takes.
func (p *Pipeline) ParseDocument(src string) (*xmltree.Document, error) {
	return xmltree.ParseWith(src, xmltree.Options{ExternalDTD: p.DTD})
}

// LoadCorpus is LoadDocument over many parsed documents with a pool of
// workers (<= 0 means GOMAXPROCS). It returns the assigned document ids
// in input order.
func (p *Pipeline) LoadCorpus(docs []*xmltree.Document, workers int) ([]int64, error) {
	return p.LoadCorpusNamed(docs, nil, workers)
}

// LoadCorpusNamed is LoadCorpus with explicit document names (nil names
// fall back to "doc-i").
func (p *Pipeline) LoadCorpusNamed(docs []*xmltree.Document, names []string, workers int) ([]int64, error) {
	return p.LoadCorpusContext(context.Background(), docs, names, workers)
}

// LoadCorpusContext is LoadCorpusNamed with cancellation: when ctx is
// cancelled no further documents start and the context's error is
// returned; documents already committed stay loaded (whole documents
// only).
func (p *Pipeline) LoadCorpusContext(ctx context.Context, docs []*xmltree.Document, names []string, workers int) ([]int64, error) {
	sts, err := p.loader.LoadCorpusContext(ctx, docs, names, workers)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, len(sts))
	for i, st := range sts {
		ids[i] = st.DocID
	}
	return ids, nil
}

// Checkpoint snapshots a durable store and truncates its write-ahead
// log; it returns engine.ErrNotDurable when no DataDir was configured.
func (p *Pipeline) Checkpoint() error { return p.DB.Checkpoint() }

// Analyze builds dictionary encodings for the string columns of every
// table (typically after a bulk load). Encoded columns let the engine
// run vectorized filters and aggregates over integer codes instead of
// strings; the dictionaries are durable (logged and snapshotted) on
// stores with a DataDir.
func (p *Pipeline) Analyze() error {
	err := p.DB.Analyze()
	if p.planCache != nil {
		p.planCache.Invalidate() // plans may embed pre-ANALYZE costing
	}
	return err
}

// AnalyzeTable is Analyze for a single table.
func (p *Pipeline) AnalyzeTable(name string) error {
	err := p.DB.AnalyzeTable(name)
	if p.planCache != nil {
		p.planCache.Invalidate()
	}
	return err
}

// DictStats reports the dictionary size per encoded column of a table
// (empty when the table has not been analyzed or nothing encoded).
func (p *Pipeline) DictStats(name string) map[string]int { return p.DB.DictStats(name) }

// TableStats returns a copy of one table's ANALYZE statistics (row
// count, per-column distinct/null counts, min/max, histograms), or nil
// when the table does not exist or was never analyzed.
func (p *Pipeline) TableStats(name string) *engine.TableStats {
	return p.DB.TableStatsSnapshot(name)
}

// StatsFreshness reports, per table, whether ANALYZE statistics exist
// and how many mutations have committed since they were collected —
// the signal for re-running ANALYZE.
func (p *Pipeline) StatsFreshness() map[string]engine.StatsFreshness {
	return p.DB.StatsFreshnessReport()
}

// Close flushes and closes the durable store (a no-op for in-memory
// pipelines). The pipeline must not be used afterwards.
func (p *Pipeline) Close() error { return p.DB.Close() }

// Validate checks a document against the DTD and returns all violations
// (nil means valid). Loading does not require prior validation, but
// invalid documents fail to shred with less precise errors.
func (p *Pipeline) Validate(src string) ([]Violation, error) {
	doc, err := xmltree.ParseWith(src, xmltree.Options{ExternalDTD: p.DTD})
	if err != nil {
		return nil, err
	}
	return p.validator.Validate(doc), nil
}

// Query runs a path query (see the pathquery syntax) translated to SQL
// over the ER-mapped store and materializes its result: the drain of
// QueryCursor. Translations come from the plan cache when one is
// configured (the default).
func (p *Pipeline) Query(path string) (*Rows, error) {
	return drain(p.QueryCursor(context.Background(), path))
}

// QueryCursor runs a path query and streams its result: union arms
// open lazily, one engine cursor at a time, so the first rows reach
// the caller before later arms have been planned or run.
func (p *Pipeline) QueryCursor(ctx context.Context, path string) (Cursor, error) {
	return pathquery.RunCursor(ctx, p.DB, p.qt, path)
}

// TranslatePath returns the SQL statements a path query translates to,
// without executing them.
func (p *Pipeline) TranslatePath(path string) ([]string, error) {
	tr, err := p.translate(path)
	if err != nil {
		return nil, err
	}
	return tr.SQLs, nil
}

// ExplainPath translates a path query and renders the full EXPLAIN
// report: plan statistics (union arms, joins emitted, joins avoided by
// distilled attributes), the generated SQL, and each arm's executed
// physical plan tree with per-operator row counts and timings.
func (p *Pipeline) ExplainPath(path string) (string, error) {
	return p.ExplainPathContext(context.Background(), path)
}

// ExplainPathContext is ExplainPath under a context: the physical plan
// sections come from executing each arm, so cancellation aborts the
// report mid-arm.
func (p *Pipeline) ExplainPathContext(ctx context.Context, path string) (string, error) {
	tr, err := p.translate(path)
	if err != nil {
		return "", err
	}
	return pathquery.ExplainContext(ctx, p.DB, tr)
}

func (p *Pipeline) translate(path string) (*pathquery.Translation, error) {
	q, err := pathquery.Parse(path)
	if err != nil {
		return nil, err
	}
	return p.qt.Translate(q)
}

// SQL runs one raw SQL statement against the store and materializes
// its result: the drain of SQLCursor (empty for non-queries).
func (p *Pipeline) SQL(stmt string) (*Rows, error) {
	return drain(p.SQLCursor(context.Background(), stmt))
}

// drain materializes a cursor that opened, or passes on why it did not.
func drain(cur Cursor, err error) (*Rows, error) {
	if err != nil {
		return nil, err
	}
	return engine.DrainCursor(cur)
}

// SQLCursor executes one SQL statement and returns its result as a
// streaming cursor: SELECTs stream row by row, other statements run to
// completion and yield an empty cursor.
func (p *Pipeline) SQLCursor(ctx context.Context, stmt string) (Cursor, error) {
	return p.DB.ExecCursorContext(ctx, stmt)
}

// ExplainSQL executes a SELECT and renders its physical plan tree with
// per-operator cardinality estimates, observed row counts and timings.
func (p *Pipeline) ExplainSQL(ctx context.Context, stmt string) (string, error) {
	return p.DB.ExplainQueryContext(ctx, stmt)
}

// Reconstruct rebuilds one loaded document from its relational form and
// returns its XML text.
func (p *Pipeline) Reconstruct(docID int64) (string, error) {
	doc, err := p.recon.Document(docID)
	if err != nil {
		return "", err
	}
	return doc.Render(xmltree.WriteOptions{}), nil
}

// DocumentIDs lists the loaded documents.
func (p *Pipeline) DocumentIDs() ([]int64, error) { return p.recon.DocumentIDs() }

// ConvertedDTD renders the steps-1..3 output in the paper's Example 2
// notation.
func (p *Pipeline) ConvertedDTD() string { return p.Result.Converted.String() }

// ERInventory renders the ER diagram (Figure 2) as a stable text
// inventory.
func (p *Pipeline) ERInventory() string { return p.Result.Model.Inventory() }

// ERDot renders the ER diagram as Graphviz DOT.
func (p *Pipeline) ERDot() string { return p.Result.Model.DOT() }

// DDL renders the generated relational schema.
func (p *Pipeline) DDL() string { return p.Mapping.Schema.DDL() }

// Stats summarizes the store.
type Stats struct {
	// Tables and Rows count schema objects and stored tuples.
	Tables, Rows int
	// Bytes approximates the storage footprint.
	Bytes int
}

// Stats returns store statistics.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Tables: len(p.DB.TableNames()),
		Rows:   p.DB.TotalRows(),
		Bytes:  p.DB.ApproxBytes(),
	}
}

// VerifyRoundTrip reloads the given XML text, reconstructs it from the
// store and checks equivalence — the E7 fidelity experiment as a single
// call.
func (p *Pipeline) VerifyRoundTrip(src, name string) error {
	doc, err := xmltree.ParseWith(src, xmltree.Options{ExternalDTD: p.DTD})
	if err != nil {
		return err
	}
	st, err := p.loader.LoadDocument(doc, name)
	if err != nil {
		return err
	}
	return p.recon.Verify(st.DocID, doc)
}
