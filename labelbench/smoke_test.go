package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test holds the
// benchmark to.
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

// reportOnly are the end-to-end metrics each workload prints beside the
// gated ones: they do not apply to every workload (or, on ordered-update,
// are not gated at all), so BENCHMARK.json does not list them.
var reportOnly = map[string][]string{
	"table2-cold":    {"error_frac", "stream_ttfb_p50_ms"},
	"table2-hot":     {"error_frac"},
	"ordered-update": {"error_frac", "update_p50_ms", "update_p99_ms", "update_per_s", "disk_kb_per_update"},
}

// TestSmoke runs every workload at a tiny size, plain and traced — the
// gated ones BENCHMARK.json lists and ordered-update — and checks that the
// answers pass, that every metric BENCHMARK.json names is printed with its
// unit, and that no labeld data dir is left behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs labeld")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json names workload %q, the benchmark has %s", w.Name, workloadNames())
		}
	}
	names := strings.Split(workloadNames(), ", ")

	dir := t.TempDir()
	bin, err := buildLabeld(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			o := options{workload: name, seed: defaultSeed, seconds: 0.4, trace: traced,
				elements: 600, setups: 2, labeld: bin, workdir: dir}
			if err := run(o, &out); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
			for _, m := range reportOnly[name] {
				if !strings.Contains(out.String(), " e2e "+m+" = ") {
					t.Errorf("%s trace=%v: %s not printed", name, traced, m)
				}
			}
			if !strings.Contains(out.String(), " regime: ok ") {
				t.Errorf("%s trace=%v: regime drifted:\n%s", name, traced, out.String())
			}
		}
	}
	left, err := filepath.Glob(filepath.Join(dir, "*-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("temporary dirs left behind: %v", left)
	}
}
