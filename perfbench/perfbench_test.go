package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/dataspace/automed/internal/ispider"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks the
// harness against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyScale keeps every workload's shape (the scan table still exceeds
// the scan buffer, so it streams) at a size that runs in seconds.
func tinyScale() scale {
	return scale{
		ispider:     ispider.DefaultConfig(),
		scanRows:    10_000,
		sessions:    4,
		sessionRows: 16,
		round:       0.02,
	}
}

// workloadExtras are the end-to-end metrics each workload prints beside
// the gated ones, with their units. (p99_ms needs a thousand samples,
// more than a tiny run has.)
var workloadExtras = map[string]map[string]string{
	"table1":      {"failed_ratio": "ratio"},
	"table1-cold": {"failed_ratio": "ratio"},
	"scan":        {"rows_per_s": "rows/s", "failed_ratio": "ratio"},
	"serving":     {"write_p50_ms": "ms", "write_p99_ms": "ms", "failed_ratio": "ratio"},
}

// TestHarness runs every workload end to end at tiny sizes, untraced
// and traced, and checks that each prints every metric BENCHMARK.json
// names, with its unit, and that every answer was checked and right.
func TestHarness(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadNames()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloadNames()))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "-traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				rep, err := run(options{workload: w.Name, seed: 7, seconds: 0.01, trace: trace, scale: tinyScale()}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				if rep.Checks < rep.Samples-writeSamples(rep) {
					t.Errorf("%d answer checks for %d query samples", rep.Checks, rep.Samples-writeSamples(rep))
				}
				want := map[string]string{}
				if trace {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("result line has %d metrics, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				for n, unit := range want {
					assertPrinted(t, out.String(), rep.Metrics, n, unit)
				}
				if !trace {
					for n, unit := range workloadExtras[w.Name] {
						assertPrinted(t, out.String(), rep.Extra, n, unit)
					}
					if v := rep.Metrics["setup_s"].Value; v <= 0 {
						t.Errorf("setup_s = %v", v)
					}
				}
			})
		}
	}
}

func writeSamples(rep *report) int {
	if m, ok := rep.Extra["write_samples"]; ok {
		return int(m.Value)
	}
	return 0
}

func assertPrinted(t *testing.T, text string, ms map[string]metric, name, unit string) {
	t.Helper()
	m, ok := ms[name]
	if !ok {
		t.Errorf("metric %s missing", name)
		return
	}
	if m.Unit != unit {
		t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
	}
	found := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == name && f[2] == unit {
			found = true
		}
	}
	if !found {
		t.Errorf("metric %s (%s) not printed", name, unit)
	}
}
