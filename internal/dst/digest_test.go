package dst

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/artifact-digests.txt from this build")

// digestFile pins the byte outputs of the smoke seeds and the regression
// corpus across commits. It is deliberately not a .json file:
// RegressionScenarios globs testdata/*.json.
var digestFile = filepath.Join("testdata", "artifact-digests.txt")

// digestSeeds is how many generated smoke seeds the digest test pins.
const digestSeeds = 16

// scenarioDigests runs sc on the default engine and returns one
// "name artifact sha256" line per artifact.
func scenarioDigests(name string, sc Scenario) ([]string, error) {
	var arts Artifacts
	res, err := Run(sc, RunOptions{Artifacts: &arts})
	if err != nil {
		return nil, err
	}
	verdict, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, a := range []struct {
		kind string
		data []byte
	}{
		{"verdict.json", verdict},
		{"trace.jsonl", arts.TraceJSONL},
		{"gauges.csv", arts.GaugeCSV},
		{"metrics.prom", arts.Metrics},
	} {
		sum := sha256.Sum256(a.data)
		lines = append(lines, fmt.Sprintf("%s %s %s", name, a.kind, hex.EncodeToString(sum[:])))
	}
	return lines, nil
}

// readDigests loads the pinned digests keyed by "name artifact".
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/dst -run TestArtifactDigests -update)", err)
	}
	want := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		want[f[0]+" "+f[1]] = f[2]
	}
	return want
}

// TestArtifactDigests is the cross-commit byte lock. The kernel
// equivalence suite only proves that the two timer engines agree with
// each other on one build; a refactor that shifts the bytes on both
// engines would pass it. This test hashes the verdict, trace, gauge and
// metrics artifacts of smoke seeds 1..16 and every regression scenario on
// the default engine and compares them with the digests an earlier
// commit recorded. Run with -update only when an output change is
// intended, and say why in the commit.
func TestArtifactDigests(t *testing.T) {
	named := make([]NamedScenario, 0, digestSeeds)
	for seed := int64(1); seed <= digestSeeds; seed++ {
		named = append(named, NamedScenario{Name: fmt.Sprintf("seed%02d", seed), Scenario: Generate(seed, SmokeProfile)})
	}
	corpus, err := RegressionScenarios()
	if err != nil {
		t.Fatalf("loading regression corpus: %v", err)
	}
	named = append(named, corpus...)

	var want map[string]string
	if !*update {
		want = readDigests(t)
	}
	var mu sync.Mutex
	var got []string
	t.Run("scenarios", func(t *testing.T) {
		for _, n := range named {
			n := n
			t.Run(n.Name, func(t *testing.T) {
				t.Parallel()
				lines, err := scenarioDigests(n.Name, n.Scenario)
				if err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				got = append(got, lines...)
				mu.Unlock()
				if *update {
					return
				}
				for _, line := range lines {
					f := strings.Fields(line)
					key := f[0] + " " + f[1]
					if w, ok := want[key]; !ok {
						t.Errorf("%s: no pinned digest (regenerate with -update)", key)
					} else if w != f[2] {
						t.Errorf("%s: sha256 %s, pinned %s", key, f[2], w)
					}
				}
			})
		}
	})
	if !*update || t.Failed() {
		return
	}
	sort.Strings(got)
	var b strings.Builder
	b.WriteString("# SHA-256 of each DST artifact on the default timer engine:\n")
	b.WriteString("# smoke seeds 1..16 and every regression scenario in this directory.\n")
	b.WriteString("# Regenerate: go test ./internal/dst -run TestArtifactDigests -update\n")
	for _, line := range got {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
