package main

import (
	"strings"
	"testing"

	"xmlrdb/internal/experiments"
)

func TestList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e1", "e7", "e12"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list missing %s", id)
		}
	}
}

// TestExpUsageListsEveryID keeps the -exp help text in step with the
// experiment registry.
func TestExpUsageListsEveryID(t *testing.T) {
	usage := expUsage()
	for _, r := range experiments.All() {
		if !strings.Contains(usage, r.ID+",") && !strings.Contains(usage, r.ID+")") {
			t.Errorf("-exp help %q does not list %s", usage, r.ID)
		}
	}
}

func TestSingleExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "e1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "MATCHES the paper's Example 2 exactly") {
		t.Errorf("e1 output:\n%s", out.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "e99"}, &out); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestParallelLoadExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 200-document corpus")
	}
	var out strings.Builder
	if err := run([]string{"-exp", "e5b", "-workers", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "parallel bulk-load scaling") ||
		!strings.Contains(got, "speedup") {
		t.Errorf("e5b output:\n%s", got)
	}
	// -workers 2 replaces the sweep with {1, 2}: two rows per DTD family.
	if strings.Contains(got, "\t8\t") {
		t.Errorf("default sweep ran despite -workers:\n%s", got)
	}
}
