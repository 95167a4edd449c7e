package main

import (
	"context"
	"time"

	"xmlrdb/internal/core"
	"xmlrdb/internal/engine"
	"xmlrdb/internal/ermap"
	"xmlrdb/internal/obs"
	"xmlrdb/internal/pathquery"
	"xmlrdb/internal/shred"
	"xmlrdb/internal/sqldb"
)

// This file turns the traced run's spans and the program's public
// counters into the per-layer metrics. A layer is a module; its time is
// the self time of the spans recorded around calls into it.

// loadLayers reports where the traced load's wall time went.
func (b *bench) loadLayers(wall, analyze time.Duration, te *timedEngine, wal0, wal1 walCounts) {
	self, count := b.loadT.selfTimes()
	docs := len(b.c.base)
	parse := self["xmltree.parse"]
	// A snapshot runs inside the insert that makes it due. Its whole
	// duration is the program's own histogram; the part of it spent in
	// the filesystem is already outside engine.insert's self time.
	snap := wal1.snapshotTime - wal0.snapshotTime
	snapFS := self["snapshot.write"] + self["snapshot.fsync"] + self["snapshot.publish"]
	insert := self["engine.insert"] - (snap - snapFS)
	r := b.res
	r.set("xmltree.parse_s", parse.Seconds(), "s", count["xmltree.parse"])
	r.set("xmltree.parse_mb_per_s", float64(xmlBytes(b.c.base))/1e6/parse.Seconds(), "MB/s", count["xmltree.parse"])
	r.set("validate.validate_s", self["validate.validate"].Seconds(), "s", count["validate.validate"])
	r.set("shred.self_s", self["shred.load"].Seconds(), "s", count["shred.load"])
	r.set("shred.rows_per_doc", float64(te.rows)/float64(docs), "count", docs)
	r.set("engine.insert_s", insert.Seconds(), "s", count["engine.insert"])
	r.set("engine.rows_inserted", float64(te.rows), "count", 1)
	r.set("wal.write_s", self["wal.write"].Seconds(), "s", count["wal.write"])
	r.set("wal.fsync_s", self["wal.fsync"].Seconds(), "s", count["wal.fsync"])
	r.set("wal.frames", float64(wal1.frames-wal0.frames), "count", 1)
	r.set("wal.bytes", float64(wal1.bytes-wal0.bytes), "count", 1)
	r.set("wal.fsyncs", float64(wal1.fsyncs-wal0.fsyncs), "count", 1)
	r.set("snapshot.count", float64(wal1.snapshots-wal0.snapshots), "count", 1)
	r.set("snapshot.time_s", snap.Seconds(), "s", int(wal1.snapshots-wal0.snapshots))
	r.set("snapshot.bytes", float64(b.fs.snapBytes), "count", 1)
	r.set("engine.analyze_s", analyze.Seconds(), "s", 1)
	r.set("load.unattributed_s", self["load"].Seconds(), "s", 1)
	r.set("load.trace_wall_s", wall.Seconds(), "s", 1)
}

// walCounts is the durability section of the program's own counters.
type walCounts struct {
	frames, bytes, fsyncs, snapshots int64
	snapshotTime                     time.Duration
}

func walCountsOf(hub *obs.Metrics) walCounts {
	return walCounts{
		frames: hub.WALFrames.Load(), bytes: hub.WALBytes.Load(), fsyncs: hub.WALFsyncs.Load(),
		snapshots:    hub.Snapshots.Load(),
		snapshotTime: time.Duration(hub.SnapshotLatency.Snapshot().Sum),
	}
}

// recoverLayers times the two parts of a cold open on the closed store:
// the engine's recovery (newest snapshot plus WAL tail) and the loader
// reseeding its id counters from the recovered rows.
func (b *bench) recoverLayers(res *core.Result, m *ermap.Mapping) error {
	hub := obs.New()
	t0 := time.Now()
	db, err := engine.OpenAtOpts(b.storeDir, engine.DurabilityOptions{SnapshotEvery: b.w.snapshotEvery, Metrics: hub})
	if err != nil {
		return err
	}
	recoverD := time.Since(t0)
	loader, err := shred.NewLoader(res, m, db)
	if err != nil {
		db.Close()
		return err
	}
	t1 := time.Now()
	err = loader.ResumeFrom(db)
	resume := time.Since(t1)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	b.res.set("engine.recover_s", recoverD.Seconds(), "s", 1)
	b.res.set("wal.replay_frames", float64(hub.WALReplayFrames.Load()), "count", 1)
	b.res.set("shred.resume_s", resume.Seconds(), "s", 1)
	return err
}

// stageTimes is one in-process execution split at the layer boundaries.
type stageTimes struct {
	pathParse, translate, sqlParse, open, drain time.Duration
	arms, joins                                 int
	scanned, out                                int64
}

// replay runs the requests the traced HTTP mix served again in-process,
// twice each: once stage by stage (path parse, cold translate, SQL
// parse, cursor open, drain) and once through the Pipeline entry point
// the server calls. It reports each stage's per-class value, the exact
// rows scanned per row returned, and what HTTP adds on top of the
// in-process call. No writer runs during the replay, so counts are exact.
func (b *bench) replay(mix, desc []sample) {
	ctx := context.Background()
	tr := pathquery.NewERTranslator(b.p.Result, b.p.Mapping)
	hub := b.p.Obs
	// lat[stage][group] collects one value per request.
	lat := map[string]map[group][]float64{}
	add := func(stage string, g group, v float64) {
		if lat[stage] == nil {
			lat[stage] = map[group][]float64{}
		}
		lat[stage][g] = append(lat[stage][g], v)
	}
	arms, joins := map[string]int{}, map[string]int{}
	scanned, out := map[string]int64{}, map[string]int64{}
	bytesBy, reqsBy := map[string]int{}, map[string]int{}
	failed := func(r request, err error) {
		b.attempt()
		b.failf("replay %s: %v", r.text, err)
	}
	for _, s := range append(append([]sample(nil), mix...), desc...) {
		r, t, g := s.req, s.req.tmpl, b.groupOf(s.req)
		add("http", g, ms(s.lat))
		bytesBy[t.class] += s.bytes
		reqsBy[t.class]++
		if t.kind == kindDoc {
			t0 := time.Now()
			if _, err := b.p.Reconstruct(int64(r.k)); err != nil {
				failed(r, err)
				continue
			}
			add("inproc", g, ms(time.Since(t0)))
			continue
		}
		st, err := b.staged(ctx, tr, hub, r)
		if err != nil {
			failed(r, err)
			continue
		}
		t0 := time.Now()
		var cur engine.Cursor
		if t.kind == kindPath {
			cur, err = b.p.QueryCursor(ctx, r.text)
		} else {
			cur, err = b.p.SQLCursor(ctx, r.text)
		}
		if err == nil {
			for cur.Next() {
			}
			err = cur.Err()
		}
		if err != nil {
			failed(r, err)
			continue
		}
		add("inproc", g, ms(time.Since(t0)))
		if t.kind == kindPath {
			add("pathParse", g, us(st.pathParse))
			add("translate", g, us(st.translate))
			arms[t.class] = max(arms[t.class], st.arms)
			joins[t.class] = max(joins[t.class], st.joins)
		}
		add("sqlParse", g, us(st.sqlParse))
		add("open", g, us(st.open))
		add("drain", g, us(st.drain))
		scanned[t.class] += st.scanned
		out[t.class] += st.out
	}
	res := b.res
	httpBy, inprocBy := classValuesOf(lat["http"]), classValuesOf(lat["inproc"])
	for _, c := range allClasses {
		res.set("serve.overhead_ms."+c, httpBy[c].value-inprocBy[c].value, "ms", inprocBy[c].n)
		res.set("serve.bytes_per_req."+c, float64(bytesBy[c])/float64(max(reqsBy[c], 1)), "count", reqsBy[c])
		res.Phases["inproc_ms."+c] = inprocBy[c].value
		res.Phases["http_traced_ms."+c] = httpBy[c].value
	}
	ppBy, trBy := classValuesOf(lat["pathParse"]), classValuesOf(lat["translate"])
	spBy, opBy, drBy := classValuesOf(lat["sqlParse"]), classValuesOf(lat["open"]), classValuesOf(lat["drain"])
	for _, c := range pathClasses {
		res.set("pathquery.parse_us."+c, ppBy[c].value, "us", ppBy[c].n)
		res.set("pathquery.translate_us."+c, trBy[c].value, "us", trBy[c].n)
		res.set("pathquery.union_arms."+c, float64(arms[c]), "count", 1)
		res.set("pathquery.joins."+c, float64(joins[c]), "count", 1)
	}
	for _, c := range cursorClasses {
		res.set("sqldb.parse_us."+c, spBy[c].value, "us", spBy[c].n)
		res.set("engine.open_us."+c, opBy[c].value, "us", opBy[c].n)
		res.set("engine.drain_us."+c, drBy[c].value, "us", drBy[c].n)
		res.set("engine.rows_scanned_per_row_out."+c, float64(scanned[c])/float64(max(out[c], 1)), "count", int(out[c]))
		// The cached in-process call skips translate, so these stages are
		// what it should add up to.
		res.Phases["stages_ms."+c] = (ppBy[c].value + spBy[c].value + opBy[c].value + drBy[c].value) / 1000
	}
	q := hub.Snapshot().Query
	res.set("pathquery.cache_hit_ratio", float64(q.PlanCacheHits)/float64(max(q.PlanCacheHits+q.PlanCacheMisses, 1)), "1", int(q.PlanCacheHits+q.PlanCacheMisses))
	busy := 0.0
	for _, s := range mix {
		busy += s.lat.Seconds()
	}
	res.set("serve.traced_req_per_s", float64(len(mix))/busy, "1/s", len(mix))
}

// staged executes one SQL or path request stage by stage.
func (b *bench) staged(ctx context.Context, tr *pathquery.ERTranslator, hub *obs.Metrics, r request) (stageTimes, error) {
	var st stageTimes
	sqls := []string{r.text}
	if r.tmpl.kind == kindPath {
		t0 := time.Now()
		q, err := pathquery.Parse(r.text)
		if err != nil {
			return st, err
		}
		t1 := time.Now()
		trn, err := tr.Translate(q) // the bare translator: no plan cache
		if err != nil {
			return st, err
		}
		st.pathParse, st.translate = t1.Sub(t0), time.Since(t1)
		st.arms, st.joins = len(trn.SQLs), trn.Stats.JoinsTotal
		sqls = trn.SQLs
	}
	scan0, out0 := hub.OpScanRows.Load(), hub.RowsOut.Load()
	for _, sql := range sqls {
		t0 := time.Now()
		if _, err := sqldb.Parse(sql); err != nil {
			return st, err
		}
		t1 := time.Now()
		cur, err := b.p.DB.QueryCursorContext(ctx, sql)
		if err != nil {
			return st, err
		}
		t2 := time.Now()
		for cur.Next() {
		}
		t3 := time.Now()
		if err := cur.Err(); err != nil {
			return st, err
		}
		parse := t1.Sub(t0)
		st.sqlParse += parse
		// QueryCursorContext parses the statement again before it binds,
		// plans and pins versions; the parse just timed is taken off.
		st.open += max(t2.Sub(t1)-parse, 0)
		st.drain += t3.Sub(t2)
	}
	st.scanned, st.out = hub.OpScanRows.Load()-scan0, hub.RowsOut.Load()-out0
	return st, nil
}

// writeLayers reports the writer's per-document self times.
func (b *bench) writeLayers() {
	shredSelf := b.writeT.selfByOp("shred.load")
	// On the writer the engine is not opened through the timed
	// filesystem, so its insert includes the WAL append and its fsync.
	insert := b.writeT.selfByOp("engine.insert")
	b.res.set("shred.write_self_us", median(shredSelf), "us", len(shredSelf))
	b.res.set("engine.write_insert_us", median(insert), "us", len(insert))
}
