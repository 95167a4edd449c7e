package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// seed1SHA pins the corpora generated from seed 1 at the smoke test's
// scale: a change to a generator or to wgen shows up here, not as a
// silent shift in every metric.
var seed1SHA = map[string]string{
	"bib_read":    "7a95c8206894ccd9a368ff991aee9308b2b9840dbc5b6c6d41bed6a400db0616",
	"bib_mixed":   "5a8af3b9341e398040266159273ccd5baf7c917be90d5bcab8b3a55705626951",
	"orders_read": "f9c8a444c7a399f5b69c948bfdc810a6975dfb9ca2ff6a62b20d612bc5a573be",
}

const smokeScale = 0.02

func smokeRun(t *testing.T, w workload, trace bool) *result {
	t.Helper()
	res, err := run(runConfig{workload: w, seed: 1, seconds: 1, scale: smokeScale, trace: trace, dir: t.TempDir(),
		traceOut: filepath.Join(t.TempDir(), "spans.json")})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.name, trace, res.Failed, res.Attempted, res.Failures)
	}
	return res
}

// TestSmoke runs every workload untraced and traced at a fiftieth of
// the size and checks that the catalogue in BENCHMARK.json is exactly
// what the program emits.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is in BENCHMARK.json but not in the program", w.Name)
		}
	}
	if len(specNames) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", specNames, len(workloads))
	}
	for _, w := range workloads {
		plain := smokeRun(t, w, false)
		traced := smokeRun(t, w, true)
		for _, c := range []struct {
			res  *result
			want []specMetric
		}{{plain, spec.EndToEnd}, {traced, spec.PerLayer}} {
			line, err := c.res.contractLine(spec)
			if err != nil {
				t.Errorf("%s: %v", w.name, err)
				continue
			}
			var got struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int                   `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil || got.Correct == nil || got.Attempted == nil || got.Failed == nil {
				t.Errorf("%s: contract line %s: %v", w.name, line, err)
			}
			var wantNames, gotNames []string
			for _, m := range c.want {
				wantNames = append(wantNames, m.Name)
				if !name.MatchString(m.Name) {
					t.Errorf("metric name %q is not a valid name", m.Name)
				}
				if v := got.Metrics[m.Name]; v.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, v.Unit, m.Unit)
				}
			}
			for n := range got.Metrics {
				gotNames = append(gotNames, n)
			}
			sort.Strings(wantNames)
			sort.Strings(gotNames)
			if !reflect.DeepEqual(wantNames, gotNames) {
				t.Errorf("%s: emitted metrics %v, BENCHMARK.json lists %v", w.name, gotNames, wantNames)
			}
		}
		for n, v := range plain.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want a positive number", w.name, n, v.Value)
			}
		}
		if plain.Corpus.SHA256 != seed1SHA[w.name] {
			t.Errorf("%s: seed 1 corpus hash is %s, pinned %s", w.name, plain.Corpus.SHA256, seed1SHA[w.name])
		}
		// The traced load is assembled from the constructors OpenDTD calls;
		// if OpenDTD changes and this copy does not, the counts part ways.
		if !reflect.DeepEqual(plain.Counts, traced.Counts) {
			t.Errorf("%s: traced load counts %+v differ from OpenDTD's %+v", w.name, traced.Counts, plain.Counts)
		}
	}
}

func TestCompare(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, loadRates ...float64) string {
		var buf bytes.Buffer
		for _, v := range loadRates {
			r := result{Workload: "bib_read", Attempted: 10, Metrics: map[string]metricValue{"load_docs_per_s": {Value: v, Unit: "1/s"}}}
			line, _ := json.Marshal(r)
			buf.Write(line)
			buf.WriteString("\nnot json\n")
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 1000, 1010, 990)
	var out strings.Builder
	if err := compareFiles(&out, spec, base, write("same.json", 1005, 995, 1000)); err != nil || !strings.Contains(out.String(), "ok") {
		t.Errorf("equal sets: err %v, output:\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, base, write("slow.json", 500, 505, 495)); err == nil || !strings.Contains(out.String(), "regressed") {
		t.Errorf("halved throughput: err %v, output:\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, base, write("noisy.json", 600, 1000, 1400)); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy set: err %v, output:\n%s", err, out.String())
	}
}
