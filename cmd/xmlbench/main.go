// Command xmlbench regenerates every table and figure of the
// reproduction's experiment suite (see DESIGN.md §4 and EXPERIMENTS.md):
// the golden reproductions of the paper's Examples 1–2 and Figures 1–2,
// and the quantitative comparisons the paper deferred.
//
// Usage:
//
//	xmlbench              # run every experiment
//	xmlbench -exp e6      # run one
//	xmlbench -list        # list experiment ids
//	xmlbench -seed 7      # change the workload seed
//	xmlbench -exp e5b -workers 4   # parallel-load scaling at one worker count
//	xmlbench -exp e14 -json BENCH_E14.json   # machine-readable results
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"xmlrdb/internal/experiments"
	"xmlrdb/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xmlbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("xmlbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", expUsage())
	seed := fs.Int64("seed", 1, "workload seed")
	list := fs.Bool("list", false, "list experiments and exit")
	workers := fs.Int("workers", 0, "e5b: measure this worker count against the one-worker baseline (0 = default 1/2/4/8 sweep)")
	stats := fs.Bool("stats", false, "attach metrics to every experiment and print the final report")
	jsonPath := fs.String("json", "", "also write the run's results as JSON to this file")
	debugAddr := fs.String("debug-addr", "", "serve /debug/metrics, /debug/vars and /debug/pprof on this address while running")
	slowMS := fs.Int("slow-query-ms", 0, "log statements at or above this many milliseconds to stderr (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers > 0 {
		experiments.E5bWorkers = []int{1, *workers}
	}
	if *stats || *debugAddr != "" || *slowMS > 0 {
		experiments.Observe = obs.Default
		obs.Publish("xmlrdb", obs.Default)
	}
	if *slowMS > 0 {
		experiments.Trace = obs.NewWriterTracer(os.Stderr)
		experiments.SlowQuery = time.Duration(*slowMS) * time.Millisecond
	}
	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, obs.Default, nil)
		if err != nil {
			return err
		}
		defer ds.Close(context.Background())
		fmt.Fprintf(w, "debug endpoint on http://%s/debug/metrics\n", ds.Addr())
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(w, "%-4s %s\n", r.ID, r.Title)
		}
		return nil
	}
	var runners []experiments.Runner
	if *exp == "all" {
		runners = experiments.All()
	} else {
		r, ok := experiments.Find(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *exp)
		}
		runners = []experiments.Runner{r}
	}
	var tables []*experiments.Table
	for _, r := range runners {
		tab, err := r.Run(*seed)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Fprintln(w, tab.String())
		tables = append(tables, tab)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, *seed, tables); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *jsonPath)
	}
	if *stats {
		fmt.Fprint(w, obs.SnapshotDefault().Report())
	}
	return nil
}

// expUsage is the -exp help text, listing every registered id.
func expUsage() string {
	var ids []string
	for _, r := range experiments.All() {
		ids = append(ids, r.ID)
	}
	return "experiment id (" + strings.Join(ids, ", ") + ") or all"
}

// jsonTable is the machine-readable form of one experiment's result:
// the rendered rows plus the experiment's structured payload when it
// provides one (E14's timings and snapshot sizes).
type jsonTable struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header,omitempty"`
	Rows   [][]string `json:"rows,omitempty"`
	Notes  []string   `json:"notes,omitempty"`
	Result any        `json:"result,omitempty"`
}

func writeJSON(path string, seed int64, tables []*experiments.Table) error {
	out := struct {
		GeneratedAt string      `json:"generated_at"`
		Seed        int64       `json:"seed"`
		Experiments []jsonTable `json:"experiments"`
	}{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Seed:        seed,
	}
	for _, t := range tables {
		out.Experiments = append(out.Experiments, jsonTable{
			ID: t.ID, Title: t.Title, Header: t.Header,
			Rows: t.Rows, Notes: t.Notes, Result: t.JSON,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
