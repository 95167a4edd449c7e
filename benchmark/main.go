// Command benchmark is the repository's benchmark: seeded corpora driven
// through the production entry points — load, serve, write, recover,
// reconstruct — with end-to-end metrics on the untraced run and
// per-layer metrics on the traced one. BENCHMARK.json at the repository
// root names the workloads and metrics; README.md in this directory
// explains them.
//
//	go run ./benchmark --workload bib_read --seed 1 --seconds 30 --trace 0
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envInfo records where a result was measured; compare only results
// whose store_fs, cpus and scale agree.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	StoreFS    string `json:"store_fs"`
	Revision   string `json:"vcs_revision"`
}

// loadCounts are the exact counts of the load phase. They depend only on
// the corpus, so they repeat exactly for a seed, and the traced stack
// must produce the same ones as OpenDTD's.
type loadCounts struct {
	Rows      map[string]int `json:"table_rows"`
	WALFrames int64          `json:"wal_frames"`
	WALBytes  int64          `json:"wal_bytes"`
	WALFsyncs int64          `json:"wal_fsyncs"`
}

// result is everything one run reports. The last line of standard
// output is its contract subset (correct, attempted, failed, metrics);
// the line before it is the whole result, which -compare reads.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Scale     float64                `json:"scale"`
	Trace     bool                   `json:"trace"`
	Env       envInfo                `json:"env"`
	Corpus    corpusInfo             `json:"corpus"`
	Counts    loadCounts             `json:"load_counts"`
	WallS     float64                `json:"wall_s"`
	Phases    map[string]float64     `json:"phases"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
}

func newResult(cfg runConfig) *result {
	r := &result{
		Workload: cfg.workload.name, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Trace: cfg.trace,
		Phases: map[string]float64{}, Metrics: map[string]metricValue{}, Samples: map[string]int{},
	}
	r.Env = envInfo{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Revision: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				r.Env.Revision = s.Value
			}
		}
	}
	return r
}

// set records a metric with the number of samples behind it.
func (r *result) set(name string, value float64, unit string, samples int) {
	r.Metrics[name] = metricValue{Value: value, Unit: unit}
	r.Samples[name] = samples
}

// contractLine is the object the driver reads: every end-to-end metric
// on an untraced run, every per-layer metric on a traced one.
func (r *result) contractLine(spec *benchSpec) ([]byte, error) {
	want := spec.EndToEnd
	if r.Trace {
		want = spec.PerLayer
	}
	metrics := map[string]metricValue{}
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		metrics[m.Name] = v
	}
	return json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name     = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 0, "how long the run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		scale    = flag.Float64("scale", 1, "multiplies every document and sample count (the smoke test uses 0.02)")
		dir      = flag.String("dir", ".", "directory the store is created in; results compare only on the same store_fs")
		traceOut = flag.String("trace-out", "", "file the traced run writes its spans to")
		spec     = flag.String("spec", "BENCHMARK.json", "the benchmark's catalogue")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.Parse()
	bs, err := readSpec(*spec)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, bs, flag.Arg(0), flag.Arg(1))
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		*seconds = float64(bs.RunSeconds)
	}
	res, err := run(runConfig{workload: w, seed: *seed, seconds: *seconds, scale: *scale, trace: *trace != 0, dir: *dir, traceOut: *traceOut})
	if err != nil {
		return err
	}
	line, err := res.contractLine(bs)
	if err != nil {
		return err
	}
	full, err := json.Marshal(res)
	if err != nil {
		return err
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "failed:", f)
	}
	fmt.Printf("%s\n%s\n", full, line)
	return nil
}
