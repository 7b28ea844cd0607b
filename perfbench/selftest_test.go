package main

// The benchmark's self-test: every workload at its smallest size
// (--seconds 1), the metric lists against BENCHMARK.json, digest
// stability, and a corrupted digest failing the correctness check.
// Run with `go test` from this directory; it takes a few minutes
// because the suite workload always runs the whole quick suite.

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, perfbench %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, perfbench %s", i, bf.Workloads[i].Name, w.name)
		}
	}
}

// runBench runs the command in-process and returns its exit code,
// standard output and the parsed result line.
func runBench(t *testing.T, args ...string) (int, string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &stdout, &stderr)
	out := stdout.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\n%s\n%s", args, err, out, stderr.String())
	}
	return code, out, res
}

var digestLine = regexp.MustCompile(`(?m)^digest \S+ (sha256:[0-9a-f]{64})$`)

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, out, res := runBench(t, "--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", "1")
			if code != 0 || !res.Correct || res.Attempted < 1 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			for _, name := range reportNames {
				re := regexp.MustCompile(`(?m)^e2e ` + w.name + ` +` + regexp.QuoteMeta(name) + ` +(n/a|\S+ +\S+ +n=\d+)`)
				if !re.MatchString(out) {
					t.Errorf("report lacks %s with a unit and sample count", name)
				}
			}
			for _, m := range perLayer {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("per-layer metric %s missing or not in %s: %+v", m.name, m.unit, got)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(perLayer))
			}
			if res.Metrics["trace.overhead_ratio"].Value <= 0 {
				t.Errorf("no tracing overhead measured")
			}
		})
	}
}

func TestDigestIsStableAndChecked(t *testing.T) {
	args := []string{"--workload", "covert", "--seed", "5", "--seconds", "1", "--trace", "0"}
	code, out, res := runBench(t, args...)
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, m := range endToEnd {
		if got := res.Metrics[m.name]; got.Unit != m.unit || got.Value <= 0 {
			t.Errorf("end-to-end metric %s: %+v", m.name, got)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(endToEnd))
	}
	digest := digestLine.FindStringSubmatch(out)[1]

	code, out, res = runBench(t, append(args, "--expect-digest", digest)...)
	if code != 0 || !res.Correct {
		t.Fatalf("same seed, different digest: exit %d\n%s", code, out)
	}
	corrupt := digest[:len(digest)-1] + "0"
	if strings.HasSuffix(digest, "0") {
		corrupt = digest[:len(digest)-1] + "1"
	}
	code, out, res = runBench(t, append(args, "--expect-digest", corrupt)...)
	if code == 0 || res.Correct {
		t.Fatalf("a corrupted digest passed the correctness check\n%s", out)
	}
}
