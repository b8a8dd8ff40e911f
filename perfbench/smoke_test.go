package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets this test binary stand in for the benchmark binary in
// the set-up probe children that librarySetup starts.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-setup-probe" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmokeEachWorkload runs every workload briefly, untraced and
// traced, and checks the contract line: correct answers and exactly
// the metrics BENCHMARK.json lists for that mode.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	serveBin := filepath.Join(dir, "midas-serve")
	build := exec.Command("go", "build", "-o", serveBin, "github.com/midas-hpc/midas/cmd/midas-serve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build midas-serve: %v\n%s", err, out)
	}
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", wl, "-seed", "5", "-seconds", "0.2", "-trace", trace,
					"-serve-bin", serveBin, "-workdir", filepath.Join(dir, "work")}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				specs := endToEnd
				if trace == "1" {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					if m, ok := res.Metrics[s.Name]; !ok || m.Unit != s.Unit {
						t.Errorf("metric %s missing or with the wrong unit", s.Name)
					}
				}
				if trace == "1" {
					tr := filepath.Join(dir, "work", "traces", wl+"-seed5.json")
					if _, err := os.Stat(tr); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
			})
		}
	}
}
