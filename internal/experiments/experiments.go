// Package experiments implements the paper's evaluation: each function
// regenerates one figure, table, or application study on the simulated
// grid, returning both structured results and formatted text. Studies
// declares every figure and study once, with its smoke size and its
// acceptance gate; cmd/benchgrid renders that table and the repository's
// benchmarks reuse the same code. EXPERIMENTS.md records
// paper-versus-measured values.
package experiments

import (
	"fmt"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
)

// barrierApp returns the standard instrumented executable: attach, report
// successful startup, pass the barrier, run for workTime, exit. The
// barrier timeout is generous: experiments with batch queues legitimately
// keep processes waiting for hours.
func barrierApp(workTime time.Duration) lrm.ExecFunc {
	return func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, err := rt.Barrier(true, "", 24*time.Hour); err != nil {
			return nil // aborted: exit before irreversible initialization
		}
		if workTime > 0 {
			return p.Work(workTime, time.Second)
		}
		return nil
	}
}

// newController builds a DUROC controller on the grid's workstation.
func newController(g *grid.Grid) *core.Controller {
	ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	})
	if err != nil {
		panic(err) // fresh workstation host: cannot fail
	}
	return ctrl
}

// splitProcs spreads total processes over m subjobs as evenly as possible.
func splitProcs(total, m int) []int {
	out := make([]int, m)
	base, rem := total/m, total%m
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// seconds formats a duration as seconds with millisecond precision.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}
