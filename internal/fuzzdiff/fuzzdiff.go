// Package fuzzdiff is the differential op-sequence fuzzer: it drives every
// system profile through the same randomized sequence of user-facing
// operations (expressed in the trace mini-language, internal/tracelang) and
// asserts after EVERY operation that the engines' complete workbook states
// are identical — the optimized profile may reorganize storage, cache,
// index, and elide work, but it must never change a displayed value.
//
// Profiles are compared within semantics classes, keyed by the
// value-visible bits of the lookup policy (§4.3.4 / Figure 8): Excel's
// early-exit + binary-search lookups legitimately disagree with Calc's and
// Sheets' full scans once an edit un-sorts a lookup table, exactly as the
// real systems do. What must never differ is mechanism: "optimized" shares
// Excel's semantics, so optimized ≡ excel cell-for-cell after every op (and
// sheets ≡ calc), no matter what indexes or caches served the values. The
// planned profile (optimized driven by the cost-based planner) runs in the
// same class, planned ≡ optimized ≡ excel.
//
// A standing plan-coherence invariant rides along: after every op, each
// engine with a planner must hold the plan a cold plan.Build of its
// workbook derives — the planner's incremental rebuilds may reuse work,
// never go stale.
//
// On top of the cross-profile comparison the harness cross-checks the
// static analyses on the baseline engine: type inference and the abstract
// interpreter's value inference must admit every computed value, and the
// parallel-safety certificate's stages must respect an independently
// rebuilt dependency graph. A round-trip oracle covers what every profile
// shares (evaluator, formula printer, structural edits), which the
// lockstep cannot see: the baseline's workbook, saved and reopened on a
// fresh excel engine, must hold the same values. A failing sequence shrinks
// (minimize.go) to a minimal trace script replayable with
// `sheetcli trace -script`.
package fuzzdiff

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/iolib"
	"repro/internal/netsim"
	"repro/internal/plan"
	"repro/internal/regions"
	"repro/internal/sheet"
	"repro/internal/tracelang"
	"repro/internal/workload"
)

// Baseline is the profile whose engine hosts the analysis cross-checks and
// whose state anchors divergence reports.
const Baseline = "excel"

// Config selects the fuzzed workload and how the differential run behaves.
type Config struct {
	Workload string // registered workload name (workload.ByName)
	Rows     int    // main-sheet data rows
	Seed     uint64 // generator seed (dataset and op sequence)
	// Profiles to run in lockstep; nil means every registered profile.
	Profiles []string
	// Checks enables the per-op cross-checks on the baseline engine
	// (absint soundness, certificate stage monotonicity, save round trip).
	Checks bool
	// AfterOp, when set, runs after each op on each engine before states
	// are compared — the fault-injection port the mutation tests use to
	// prove the harness catches a misbehaving engine.
	AfterOp func(profile string, eng *engine.Engine, active *sheet.Sheet, op tracelang.Op)
}

func (c Config) profiles() []string {
	if len(c.Profiles) > 0 {
		return c.Profiles
	}
	names := make([]string, 0, 4)
	for n := range engine.Profiles() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Failure describes the first divergence of a differential run.
type Failure struct {
	OpIndex int // 0-based index of the op after which the divergence appeared; -1 = post-install
	Op      tracelang.Op
	Kind    string // "config", "install", "state", "error", "plan", "absint", "stagecert", "roundtrip"
	Detail  string
	Ops     []tracelang.Op // the executed ops through OpIndex
}

func (f *Failure) Error() string {
	if f.OpIndex < 0 {
		return fmt.Sprintf("fuzzdiff: %s: %s", f.Kind, f.Detail)
	}
	return fmt.Sprintf("fuzzdiff: %s after op %d (%s): %s", f.Kind, f.OpIndex, f.Op, f.Detail)
}

// Script renders the executed op prefix as a trace mini-language script —
// paste it into `sheetcli trace -script` to replay the failure.
func (f *Failure) Script() string { return tracelang.Format(f.Ops) }

// Run builds the workload on one engine per profile and applies ops in
// lockstep, comparing complete workbook state after every op within each
// lookup-semantics class (optimized vs excel, sheets vs calc). It returns
// nil when every intermediate state agreed (or when the run was cut short
// by the web profile's modeled API quota — a policy difference, not a
// value difference), and the first Failure otherwise.
func Run(cfg Config, ops []tracelang.Op) *Failure {
	gen, ok := workload.ByName(cfg.Workload)
	if !ok {
		return &Failure{OpIndex: -1, Kind: "config", Detail: fmt.Sprintf("unknown workload %q", cfg.Workload)}
	}
	profs := cfg.profiles()
	execs := make(map[string]*tracelang.Exec, len(profs))
	classes := make(map[string][]string) // lookup-semantics key -> profiles
	var classKeys []string
	for _, p := range profs {
		prof, ok := engine.Profiles()[p]
		if !ok {
			return &Failure{OpIndex: -1, Kind: "config", Detail: fmt.Sprintf("unknown profile %q", p)}
		}
		k := fmt.Sprintf("early=%t/binsearch=%t", prof.Lookup.ExactEarlyExit, prof.Lookup.ApproxBinarySearch)
		if len(classes[k]) == 0 {
			classKeys = append(classKeys, k)
		}
		classes[k] = append(classes[k], p)
		eng := engine.New(prof)
		wb := gen.Build(workload.Spec{
			Rows:     cfg.Rows,
			Formulas: true,
			Seed:     cfg.Seed,
			Columnar: prof.Opt.ColumnarLayout,
		})
		if err := eng.Install(wb); err != nil {
			return &Failure{OpIndex: -1, Kind: "install", Detail: fmt.Sprintf("%s: %v", p, err)}
		}
		execs[p] = tracelang.NewExec(eng)
	}
	divergedAny := func() string {
		for _, k := range classKeys {
			if d := diverged(execs, classes[k]); d != "" {
				return d
			}
		}
		return ""
	}
	if d := divergedAny(); d != "" {
		return &Failure{OpIndex: -1, Kind: "state", Detail: "post-install: " + d}
	}
	for _, p := range profs {
		if d := planIncoherent(execs[p].Eng); d != "" {
			return &Failure{OpIndex: -1, Kind: "plan", Detail: "post-install: " + p + ": " + d}
		}
	}
	for i, op := range ops {
		errs := make(map[string]error, len(profs))
		quota := false
		for _, p := range profs {
			x := execs[p]
			err := x.Apply(op)
			if err != nil && errors.Is(err, netsim.ErrQuotaExhausted) {
				quota = true
			}
			errs[p] = err
			if cfg.AfterOp != nil {
				cfg.AfterOp(p, x.Eng, x.S, op)
			}
		}
		if quota {
			// The web profile's API budget ran dry; every state up to the
			// previous op was verified, and the quota is modeled policy.
			return nil
		}
		fail := func(kind, detail string) *Failure {
			return &Failure{OpIndex: i, Op: op, Kind: kind, Detail: detail, Ops: append([]tracelang.Op(nil), ops[:i+1]...)}
		}
		ref := errs[profs[0]]
		for _, p := range profs[1:] {
			if (errs[p] == nil) != (ref == nil) {
				return fail("error", fmt.Sprintf("%s: %v, but %s: %v", profs[0], ref, p, errs[p]))
			}
		}
		if d := divergedAny(); d != "" {
			return fail("state", d)
		}
		for _, p := range profs {
			if d := planIncoherent(execs[p].Eng); d != "" {
				return fail("plan", p+": "+d)
			}
		}
		if cfg.Checks {
			base := execs[Baseline]
			if base == nil {
				base = execs[profs[0]]
			}
			if kind, detail := checkAnalyses(base); kind != "" {
				return fail(kind, detail)
			}
		}
	}
	return nil
}

// diverged compares every engine's full workbook state against the first
// profile's: sheet roster and order, dimensions, formula counts, hidden
// rows, the active sheet, and every cell value with exact struct equality
// (Value.Equal is deliberately avoided — it is case-insensitive for text,
// and "identical" here means byte-identical). Returns "" on agreement.
func diverged(execs map[string]*tracelang.Exec, profs []string) string {
	ref := execs[profs[0]]
	for _, p := range profs[1:] {
		x := execs[p]
		if x.S.Name != ref.S.Name {
			return fmt.Sprintf("%s active sheet %q, %s active sheet %q", profs[0], ref.S.Name, p, x.S.Name)
		}
		rs, xs := ref.Eng.Workbook().Sheets(), x.Eng.Workbook().Sheets()
		if len(rs) != len(xs) {
			return fmt.Sprintf("%s has %d sheets, %s has %d", profs[0], len(rs), p, len(xs))
		}
		for si := range rs {
			a, b := rs[si], xs[si]
			if a.Name != b.Name {
				return fmt.Sprintf("sheet %d named %q on %s, %q on %s", si, a.Name, profs[0], b.Name, p)
			}
			if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
				return fmt.Sprintf("%s: %dx%d on %s, %dx%d on %s", a.Name, a.Rows(), a.Cols(), profs[0], b.Rows(), b.Cols(), p)
			}
			if a.FormulaCount() != b.FormulaCount() {
				return fmt.Sprintf("%s: %d formulas on %s, %d on %s", a.Name, a.FormulaCount(), profs[0], b.FormulaCount(), p)
			}
			for r := 0; r < a.Rows(); r++ {
				if a.RowHidden(r) != b.RowHidden(r) {
					return fmt.Sprintf("%s row %d: hidden=%t on %s, %t on %s", a.Name, r+1, a.RowHidden(r), profs[0], b.RowHidden(r), p)
				}
				for c := 0; c < a.Cols(); c++ {
					at := cell.Addr{Row: r, Col: c}
					if va, vb := a.Value(at), b.Value(at); va != vb {
						return fmt.Sprintf("%s!%s: %s computed %+v, %s computed %+v", a.Name, at.A1(), profs[0], va, p, vb)
					}
				}
			}
		}
	}
	return ""
}

// planIncoherent compares a planner-driven engine's settled plan with a
// cold plan.Build of its workbook; "" when they agree or the profile has
// no planner.
func planIncoherent(eng *engine.Engine) string {
	got := eng.SettledPlan()
	if got == nil {
		return ""
	}
	want := plan.Build(eng.Workbook(), plan.Options{Coeff: eng.Profile().Coeff})
	if d := plan.Diff(got, want); d != "" {
		return "engine plan differs from a cold build: " + d
	}
	return ""
}

// checkAnalyses runs the static-analysis soundness checks against the
// active sheet of one (baseline) engine, then the save round trip of its
// workbook. Returns ("", "") when sound.
func checkAnalyses(x *tracelang.Exec) (kind, detail string) {
	if d := roundTrip(x.Eng.Workbook()); d != "" {
		return "roundtrip", d
	}
	s := x.S

	// The abstract interpreter promises an over-approximation of the
	// evaluator: every computed formula value must be admitted by its
	// abstract value — kind/error projection first (Value.Admits checks
	// Ab.Admits), then interval and constant — no matter what edits the
	// fuzzer applied.
	inf := absint.InferSheet(s)
	for _, a := range inf.FormulaCells() {
		if v := s.Value(a); !inf.At(a).Admits(v) {
			return "absint", fmt.Sprintf("%s!%s: inferred %s does not admit computed %+v", s.Name, a.A1(), inf.At(a), v)
		}
	}

	// The parallel-safety certificate must stage dependencies forward.
	// Rebuild the dependency graph and the region inference from scratch —
	// independently of whatever the engine cached — and require that every
	// transitive dependent of a formula cell lives at a strictly later
	// stage whenever it lives in a different region.
	cert := x.Eng.ParallelCert(s)
	if cert == nil || !cert.OK {
		return "", ""
	}
	g := graph.New()
	s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
		dr, dc := fc.DeltaAt(a)
		g.SetFormula(a, fc.Code.PrecedentRanges(dr, dc))
		return true
	})
	sr := regions.Infer(s)
	if len(cert.Stage) != len(sr.Regions) {
		return "stagecert", fmt.Sprintf("%s: certificate covers %d regions, independent inference found %d", s.Name, len(cert.Stage), len(sr.Regions))
	}
	var bad string
	s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
		ra := sr.RegionFor(a)
		if ra < 0 || cert.Stage[ra] < 0 {
			return true
		}
		for _, b := range g.TransitiveDependents(a) {
			rb := sr.RegionFor(b)
			if rb < 0 || rb == ra {
				continue
			}
			if cert.Stage[rb] < 0 || cert.Stage[rb] <= cert.Stage[ra] {
				bad = fmt.Sprintf("%s!%s (region %d, stage %d) has dependent %s (region %d, stage %d)",
					s.Name, a.A1(), ra, cert.Stage[ra], b.A1(), rb, cert.Stage[rb])
				return false
			}
		}
		return true
	})
	if bad != "" {
		return "stagecert", bad
	}
	return "", ""
}

// roundTrip saves the workbook in SVF, reopens it on a fresh excel engine
// and compares every cell value; "" when they all agree.
func roundTrip(wb *sheet.Workbook) string {
	var buf bytes.Buffer
	if err := iolib.WriteWorkbook(&buf, wb); err != nil {
		return "save: " + err.Error()
	}
	res, err := iolib.ReadWorkbook(&buf)
	if err != nil {
		return "reopen: " + err.Error()
	}
	if err := engine.New(engine.ExcelProfile()).Install(res.Workbook); err != nil {
		return "install: " + err.Error()
	}
	reopened := res.Workbook.Sheets()
	for si, a := range wb.Sheets() {
		b := reopened[si]
		for r := 0; r < a.Rows(); r++ {
			for c := 0; c < a.Cols(); c++ {
				at := cell.Addr{Row: r, Col: c}
				if va, vb := a.Value(at), b.Value(at); va != vb {
					return fmt.Sprintf("%s!%s: live %+v, reopened %+v", a.Name, at.A1(), va, vb)
				}
			}
		}
	}
	return ""
}
