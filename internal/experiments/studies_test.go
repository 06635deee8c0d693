package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// gateCase is one hand-built result fed to a study's Check: want is a
// substring of the expected violation, or "" for a result that passes.
type gateCase struct {
	name  string
	check func() []string
	want  string
}

func runGateCases(t *testing.T, cases []gateCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := c.check()
			if c.want == "" {
				if len(bad) != 0 {
					t.Fatalf("passing result rejected: %v", bad)
				}
				return
			}
			for _, v := range bad {
				if strings.Contains(v, c.want) {
					return
				}
			}
			t.Fatalf("violations %q do not report %q", bad, c.want)
		})
	}
}

func TestChaosCheckRejects(t *testing.T) {
	clean := ChaosRow{FaultRate: 0.75, OrphansRecorded: 2, OrphansReaped: 2}
	with := func(edit func(*ChaosRow)) func() []string {
		return func() []string {
			row := clean
			edit(&row)
			return ChaosResult{Rows: []ChaosRow{{}, row}}.Check()
		}
	}
	runGateCases(t, []gateCase{
		{"clean", with(func(*ChaosRow) {}), ""},
		{"leaked jobs", with(func(r *ChaosRow) { r.LeakedJobs = 1 }), "leaked 1 jobs"},
		{"orphan never reaped", with(func(r *ChaosRow) { r.OrphansReaped = 1 }), "recorded 2 orphans but reaped 1"},
		{"reaped more than recorded", with(func(r *ChaosRow) { r.OrphansReaped = 3 }), "recorded 2 orphans but reaped 3"},
	})
}

func TestFederationCheckRejects(t *testing.T) {
	base := FederationLoadRow{Replicas: 1, ThroughputPerMin: 10, P99: time.Minute}
	with := func(rows ...FederationLoadRow) func() []string {
		return func() []string { return FederationLoadResult{Rows: rows}.Check() }
	}
	runGateCases(t, []gateCase{
		{"two replicas beat one", with(base, FederationLoadRow{Replicas: 2, ThroughputPerMin: 11, P99: time.Minute}), ""},
		{"no single-replica baseline", with(FederationLoadRow{Replicas: 2, ThroughputPerMin: 1, P99: time.Hour}), ""},
		{"equal throughput", with(base, FederationLoadRow{Replicas: 2, ThroughputPerMin: 10, P99: time.Second}), "no multi-replica row beat"},
		{"worse p99", with(base, FederationLoadRow{Replicas: 2, ThroughputPerMin: 20, P99: 2 * time.Minute}), "no multi-replica row beat"},
		{"split across rows", with(base,
			FederationLoadRow{Replicas: 2, ThroughputPerMin: 20, P99: 2 * time.Minute},
			FederationLoadRow{Replicas: 4, ThroughputPerMin: 9, P99: time.Second}), "no multi-replica row beat"},
		{"baseline only", with(base), "no multi-replica row beat"},
	})
}

func TestWireCheckRejects(t *testing.T) {
	rows := func() []WireRow {
		return []WireRow{
			{Codec: "json", MsgsPerSec: 100, AllocsPerOp: 10},
			{Codec: "binary", MsgsPerSec: 200, AllocsPerOp: 5},
			{Codec: "json", Batched: true, MsgsPerSec: 150, AllocsPerOp: 8},
			{Codec: "binary", Batched: true, MsgsPerSec: 300, AllocsPerOp: 4},
		}
	}
	with := func(edit func([]WireRow) []WireRow) func() []string {
		return func() []string { return WireResult{Rows: edit(rows())}.Check() }
	}
	runGateCases(t, []gateCase{
		{"binary wins", with(func(r []WireRow) []WireRow { return r }), ""},
		{"unbatched drop", with(func(r []WireRow) []WireRow { r[0].Dropped = 1; return r }),
			"codec json (batched=false) dropped 1 messages"},
		{"batched drop", with(func(r []WireRow) []WireRow { r[3].Dropped = 2; return r }),
			"codec binary (batched=true) dropped 2 messages"},
		{"binary not faster", with(func(r []WireRow) []WireRow { r[1].MsgsPerSec = 100; return r }),
			"binary 100 msgs/sec does not beat JSON 100"},
		{"binary allocs not lower", with(func(r []WireRow) []WireRow { r[1].AllocsPerOp = 10; return r }),
			"binary 10.0 allocs/op not below JSON 10.0"},
		{"missing json row", with(func(r []WireRow) []WireRow { return r[1:] }), "missing the unbatched json/binary rows"},
		{"missing binary row", with(func(r []WireRow) []WireRow { return append(r[:1], r[2:]...) }),
			"missing the unbatched json/binary rows"},
	})
}

func TestScaleCheckRejects(t *testing.T) {
	row := func(engine string) ScaleRow {
		return ScaleRow{Engine: engine, Jobs: 10, Done: 10, TimersFired: 70,
			VirtualEnd: time.Hour, MeanWait: time.Second, P99Wait: time.Minute,
			Wall: time.Duration(len(engine)) * time.Millisecond}
	}
	with := func(edit func(heap, wheel *ScaleRow)) func() []string {
		return func() []string {
			heap, wheel := row("heap"), row("wheel")
			edit(&heap, &wheel)
			return ScaleResult{Jobs: 10, Rows: []ScaleRow{heap, wheel}}.Check()
		}
	}
	runGateCases(t, []gateCase{
		{"engines agree, wall clock aside", with(func(_, _ *ScaleRow) {}), ""},
		{"job missing", with(func(_, w *ScaleRow) { w.Done = 9 }), "engine wheel accounted for 9 of 10 jobs"},
		{"job failed", with(func(h, _ *ScaleRow) { h.Done, h.Failed = 9, 1 }), "engine heap failed 1 jobs"},
		{"timers differ", with(func(_, w *ScaleRow) { w.TimersFired++ }), "engines heap and wheel diverge"},
		{"virtual end differs", with(func(_, w *ScaleRow) { w.VirtualEnd += time.Second }), "engines heap and wheel diverge"},
		{"mean wait differs", with(func(_, w *ScaleRow) { w.MeanWait++ }), "engines heap and wheel diverge"},
		{"p99 wait differs", with(func(_, w *ScaleRow) { w.P99Wait++ }), "engines heap and wheel diverge"},
	})
}

// TestStudiesTable pins the table's shape: unique selectors, the paper's
// four figures, and exactly the CI studies carrying a smoke size, in
// report order — the set `benchgrid -smoke` runs.
func TestStudiesTable(t *testing.T) {
	seen := map[string]bool{}
	var figures, smoke []string
	for _, s := range Studies {
		if seen[s.Name] {
			t.Errorf("duplicate study %q", s.Name)
		}
		seen[s.Name] = true
		if s.Full == nil || s.Title == "" {
			t.Errorf("study %q lacks a full run or a title", s.Name)
		}
		if s.Figure {
			figures = append(figures, s.Name)
		}
		if s.Smoke != nil {
			smoke = append(smoke, s.Name)
		}
	}
	if want := []string{"2", "3", "4", "5"}; !reflect.DeepEqual(figures, want) {
		t.Errorf("figures = %v, want %v", figures, want)
	}
	if want := []string{"broker", "chaos", "federation", "wire", "slo", "scale"}; !reflect.DeepEqual(smoke, want) {
		t.Errorf("smoke studies = %v, want %v", smoke, want)
	}
}
