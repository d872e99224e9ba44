package main

import (
	"flag"

	"repro/internal/obs"
)

// defaultDriftScript passes planner gates the drift monitor instruments: a
// cold full recalculation (recalc-seq), a pair of shared
// aggregates so incremental maintenance materializes them, edits inside
// the aggregated range (delta-maint), and a second recalculation. On the
// weather dataset only recalc-seq and delta-maint fire; the lookup gate
// (lookup-binary) fires on ledger.
const defaultDriftScript = "recalc; formula R2 =SUM(J2:J101); formula R3 =SUM(J2:J101); " +
	"set J6 3; set J7 4; set J8 5; recalc"

// driftFlags defines the drift subcommand's own flag. The report is the
// plan-drift monitor's predicted-versus-measured work at every planner gate
// the scripted run passed: whether the cost model is calibrated (aggregate
// ratio inside [obs.DriftCalibratedMin, obs.DriftCalibratedMax] per gate).
// Ratios are computed on the simulated clock, so the report is
// deterministic for a fixed workload and seed.
func driftFlags(fs *flag.FlagSet) builder {
	strict := fs.Bool("strict", false, "exit 1 when any gate's aggregate ratio leaves the calibrated band")
	return func(input) (output, error) {
		rep := obs.DefaultDrift.Report()
		o := output{doc: rep, text: rep.WriteText}
		if *strict && !rep.Calibrated() {
			o.exit = 1
		}
		return o, nil
	}
}
