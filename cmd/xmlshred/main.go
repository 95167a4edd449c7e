// Command xmlshred loads XML documents into a relational store under
// the paper's ER mapping and reports what was stored.
//
// Usage:
//
//	xmlshred -dtd schema.dtd [-strategy junction|fold] [-verify]
//	         [-workers n] [-dump table] [-analyze]
//	         [-data-dir dir [-snapshot-every n]]
//	         doc1.xml [doc2.xml ...]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"xmlrdb"
	"xmlrdb/internal/obs"
	"xmlrdb/internal/xmltree"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xmlshred:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("xmlshred", flag.ContinueOnError)
	dtdPath := fs.String("dtd", "", "DTD file (required)")
	strategy := fs.String("strategy", "junction", "relational strategy: junction or fold")
	verify := fs.Bool("verify", false, "reconstruct each document and verify equivalence")
	workers := fs.Int("workers", 1, "loader workers shredding documents concurrently (each document commits atomically at any count; ignored with -verify)")
	dump := fs.String("dump", "", "print the rows of one table after loading")
	stats := fs.Bool("stats", false, "print the pipeline metrics report after loading")
	debugAddr := fs.String("debug-addr", "", "serve /debug/metrics, /debug/vars and /debug/pprof on this address while loading")
	dataDir := fs.String("data-dir", "", "durable store directory (write-ahead logged; reopening recovers loaded documents)")
	snapEvery := fs.Int("snapshot-every", 0, "snapshot the store and truncate the log after this many WAL frames (0 disables; requires -data-dir)")
	analyze := fs.Bool("analyze", false, "run ANALYZE after loading: builds dictionaries and the optimizer statistics (persisted on durable stores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dtdPath == "" {
		return fmt.Errorf("-dtd is required")
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no documents given")
	}
	dtdText, err := os.ReadFile(*dtdPath)
	if err != nil {
		return err
	}
	if *snapEvery != 0 && *dataDir == "" {
		return fmt.Errorf("-snapshot-every requires -data-dir")
	}
	cfg := xmlrdb.Config{DataDir: *dataDir, SnapshotEvery: *snapEvery}
	if *strategy == "fold" {
		cfg.Strategy = xmlrdb.StrategyFoldFK
	}
	p, err := xmlrdb.Open(string(dtdText), cfg)
	if err != nil {
		return err
	}
	defer p.Close()
	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, p.Obs, nil)
		if err != nil {
			return err
		}
		defer ds.Close(context.Background())
		fmt.Fprintf(w, "debug endpoint on http://%s/debug/metrics\n", ds.Addr())
	}
	if *verify {
		for _, path := range fs.Args() {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if err := p.VerifyRoundTrip(string(b), path); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			fmt.Fprintf(w, "%s: loaded and round-trip verified\n", path)
		}
	} else {
		docs := make([]*xmltree.Document, 0, fs.NArg())
		for _, path := range fs.Args() {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			doc, err := p.ParseDocument(string(b))
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			docs = append(docs, doc)
		}
		ids, err := p.LoadCorpusNamed(docs, fs.Args(), *workers)
		if err != nil {
			return err
		}
		for i, path := range fs.Args() {
			fmt.Fprintf(w, "%s: loaded as document %d\n", path, ids[i])
		}
	}
	if *analyze {
		if err := p.Analyze(); err != nil {
			return fmt.Errorf("analyze: %w", err)
		}
		fmt.Fprintln(w, "analyzed: optimizer statistics collected for all tables")
	}
	st := p.Stats()
	fmt.Fprintf(w, "store: %d tables, %d rows, ~%d bytes\n", st.Tables, st.Rows, st.Bytes)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "table\trows")
	for _, name := range p.DB.TableNames() {
		if n := p.DB.RowCount(name); n > 0 {
			fmt.Fprintf(tw, "%s\t%d\n", name, n)
		}
	}
	tw.Flush()

	if *dump != "" {
		rows, err := p.SQL("SELECT * FROM " + *dump)
		if err != nil {
			return err
		}
		printRows(w, rows)
	}
	if *stats {
		fmt.Fprint(w, p.MetricsReport())
	}
	return nil
}

func printRows(out io.Writer, rows *xmlrdb.Rows) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	for i, c := range rows.Cols {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
	for _, r := range rows.Data {
		for i, v := range r {
			if i > 0 {
				fmt.Fprint(w, "\t")
			}
			if v == nil {
				fmt.Fprint(w, "NULL")
			} else {
				fmt.Fprintf(w, "%v", v)
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}
