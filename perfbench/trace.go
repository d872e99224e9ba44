package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/interfere"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/regions"
	"repro/internal/sheet"
	"repro/internal/workload"
)

// layerOf maps an engine span to the module whose self time it carries;
// spans not listed are attributed to no module.
func layerOf(name string) string {
	switch name {
	case "engine.plan_build":
		return "plan"
	case "engine.value_cert":
		return "absint"
	case "engine.refresh_externals":
		return "refresh"
	case "engine.recalc_dirty", "engine.eval_all", "sort.recalc", "insert.eval",
		"paste.eval", "setcell.deltas", "batch.fill":
		return "recalc"
	case "chain.sequence", "engine.rebuild_graph", "engine.resequence":
		return "graph"
	case "sort.permute", "paste.copy", "filter.scan", "pivot.scan", "find.scan":
		return "sheet"
	case "find.index_probe":
		return "index"
	}
	switch {
	case strings.HasPrefix(name, "op."):
		return "op"
	case strings.HasPrefix(name, "graph."):
		return "graph"
	case strings.HasPrefix(name, "regions."), strings.HasPrefix(name, "interfere."):
		return "regions"
	}
	return ""
}

// spanTally accumulates self time per module and chain-cache outcomes over
// the drained traces of timed actions.
type spanTally struct {
	self        map[string]time.Duration
	covered     time.Duration // inside root spans
	actionWall  time.Duration // timed by the benchmark
	chainHits   int
	chainCalls  int
	installSelf map[string]time.Duration
}

func newTally() *spanTally {
	return &spanTally{self: map[string]time.Duration{}, installSelf: map[string]time.Duration{}}
}

func selfTime(sp *obs.TraceSpan) time.Duration {
	d := sp.Dur
	for _, c := range sp.Children {
		d -= c.Dur
	}
	return d
}

// add attributes one action's trace; d is the action's timed wall time.
func (t *spanTally) add(tr *obs.Trace, d time.Duration) {
	t.actionWall += d
	t.covered += tr.RootDuration()
	tr.Walk(func(sp *obs.TraceSpan, _ int) {
		if l := layerOf(sp.Name); l != "" {
			t.self[l] += selfTime(sp)
		}
		if sp.Name == "chain.sequence" {
			t.chainCalls++
			if src, _ := sp.StrAttr("source"); src == "cache" {
				t.chainHits++
			}
		}
	})
}

// addInstall attributes a traced set-up's engine.install subtree: each
// install.* phase, and the from-scratch evaluation as install.eval.
func (t *spanTally) addInstall(tr *obs.Trace) {
	for _, root := range tr.Roots {
		if root.Name != "engine.install" {
			continue
		}
		for _, c := range root.Children {
			switch {
			case strings.HasPrefix(c.Name, "install."):
				t.installSelf[c.Name] += c.Dur
			case c.Name == "engine.eval_all", c.Name == "engine.refresh_externals":
				t.installSelf["install.eval"] += c.Dur
			}
		}
	}
}

func counters() map[string]int64 {
	out := map[string]int64{}
	for _, c := range obs.Default.Snapshot().Counters {
		out[c.Name] += c.Value
	}
	return out
}

// runTraced attributes a workload's time to the engine's modules. It sets
// up once with obs spans on (for the install phases), times direct calls
// into each layer's public functions on the set-up workbook, then runs the
// stream with traced and untraced rounds alternating. Meter counts come
// from the first, untraced round; span self times and obs counters from the
// traced rounds; runtime figures from the untraced ones.
func runTraced(w *workloadDef, seed uint64, budget time.Duration) (*result, error) {
	tally := newTally()
	obs.Reset()
	obs.SetEnabled(true)
	sess, _, err := setUp(w, seed)
	obs.SetEnabled(false)
	if err != nil {
		return nil, err
	}
	tally.addInstall(obs.Take())
	probes, err := probeLayers(sess.e.Workbook(), w)
	if err != nil {
		return nil, err
	}

	obs.Default.ResetValues()
	st := sess.run(stopRule{budget: budget, minRounds: 2}, 1, tally)
	ctr := counters()
	bad, first := checkOutput(sess.e.Workbook())

	printClasses(w, st)
	plain, traced := st.total(false), st.total(true)
	res := newResult(plain.actions+traced.actions, st.failed, bad, first, st.errs)
	m := res.Metrics
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	n := float64(traced.actions)
	work := sess.work
	perAction := func(metric costmodel.Metric) float64 { return float64(work.Count(metric)) / float64(st.counted) }
	selfMS := func(layer string) float64 { return ms(tally.self[layer]) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// Every round holds the same formula inserts; rounds 1, 3, ... ran traced.
	formulas := len(st.rounds) / 2 * w.Round[uFormula]

	put("plan.builds_per_action", "count", float64(ctr["engine_plan_builds"])/n)
	put("plan.self_ms", "ms", selfMS("plan"))
	put("absint.self_ms", "ms", selfMS("absint"))
	put("engine.refresh_self_ms", "ms", selfMS("refresh"))
	put("engine.recalc_self_ms", "ms", selfMS("recalc"))
	put("engine.op_self_ms", "ms", selfMS("op"))
	put("engine.cells_evaluated_per_action", "count", float64(ctr["engine_cells_evaluated"])/n)
	put("engine.formula_eval_per_action", "count", perAction(costmodel.FormulaEval))
	put("engine.stale_check_per_action", "count", perAction(costmodel.StaleCheck))
	put("engine.fast_eval_hit_ratio", "ratio", ratio(float64(ctr["engine_fast_eval_hits"]), float64(formulas)))
	put("engine.deferred_ms", "ms", ratio(plain.settleMS, float64(plain.settled)))
	put("formula.ref_resolve_per_action", "count", perAction(costmodel.RefResolve))
	put("formula.compare_per_action", "count", perAction(costmodel.Compare))
	put("formula.compile_per_action", "count", perAction(costmodel.FormulaCompile))
	put("graph.dep_op_per_action", "count", perAction(costmodel.DepOp))
	put("graph.self_ms", "ms", selfMS("graph"))
	put("graph.chain_cache_hit_ratio", "ratio", ratio(float64(tally.chainHits), float64(tally.chainCalls)))
	put("regions.reinfer_per_action", "count", float64(ctr["engine_region_reinfer"])/n)
	put("regions.split_per_action", "count", float64(ctr["engine_regions_split"])/n)
	put("regions.self_ms", "ms", selfMS("regions"))
	put("index.probe_per_action", "count", perAction(costmodel.IndexProbe))
	put("index.self_ms", "ms", selfMS("index"))
	put("sheet.cell_write_per_action", "count", perAction(costmodel.CellWrite))
	put("sheet.self_ms", "ms", selfMS("sheet"))
	for _, k := range []string{"install.graph", "install.opt_state", "install.parallel_cert", "install.eval"} {
		put(k+"_ms", "ms", ms(tally.installSelf[k]))
	}
	for _, p := range probes {
		put(p.name, p.unit, p.value)
	}
	put("runtime.alloc_bytes_per_action", "B", float64(plain.allocB)/float64(plain.actions))
	put("runtime.gc_cycles_per_action", "count", float64(plain.gcCycles)/float64(plain.actions))
	put("runtime.gc_cpu_frac", "ratio", plain.gc.frac())
	plainRate := float64(plain.actions) / plain.wall.Seconds()
	tracedRate := n / traced.wall.Seconds()
	put("trace.overhead_frac", "ratio", 1-tracedRate/plainRate)
	put("trace.coverage_frac", "ratio", ratio(float64(tally.covered), float64(tally.actionWall)))
	return res, finite(res)
}

type probe struct {
	name, unit string
	value      float64
}

// timeIt runs f reps times and returns the median duration in ms.
func timeIt(reps int, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = ms(time.Since(t0))
	}
	return median(xs)
}

// probeLayers times direct calls into each layer's public functions on the
// workload's main sheet. A panic inside a layer is returned as an error.
func probeLayers(wb *sheet.Workbook, w *workloadDef) (out []probe, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("layer probe panicked: %v", r)
		}
	}()
	const reps = 3
	s := wb.Sheet(w.mainSheet())
	type fcell struct {
		at cell.Addr
		fc sheet.Formula
	}
	var fs []fcell
	s.EachFormula(func(a cell.Addr, fc sheet.Formula) bool {
		fs = append(fs, fcell{a, fc})
		return true
	})
	add := func(name, unit string, v float64) { out = append(out, probe{name, unit, v}) }

	const compiles = 2000
	texts := make([]string, 0, compiles)
	for i := 0; i < len(fs) && i < compiles; i++ {
		texts = append(texts, fs[i].fc.Code.Text)
	}
	add("formula.compile_us", "us", 1000*timeIt(reps, func() {
		for _, t := range texts {
			if _, err := formula.Compile(t); err != nil {
				panic(err)
			}
		}
	})/float64(len(texts)))
	add("graph.build_ms", "ms", timeIt(reps, func() {
		g := graph.New()
		for _, f := range fs {
			dr, dc := f.fc.DeltaAt(f.at)
			g.SetFormula(f.at, f.fc.Code.PrecedentRanges(dr, dc))
		}
	}))
	var sr *regions.SheetRegions
	add("regions.infer_ms", "ms", timeIt(reps, func() { sr = regions.Infer(s) }))
	add("regions.build_ms", "ms", timeIt(reps, func() { regions.Build(sr) }))
	add("interfere.analyze_ms", "ms", timeIt(reps, func() { interfere.Analyze(sr) }))
	add("absint.infer_ms", "ms", timeIt(reps, func() { absint.InferSheet(s) }))
	add("plan.build_ms", "ms", timeIt(reps, func() { plan.Build(wb, plan.Options{Cache: plan.NewCache()}) }))

	col := colJ
	if w.Dataset == "ledger" {
		col = workload.LedgerColAmount
	}
	vals := make([]cell.Value, s.Rows())
	for r := range vals {
		vals[r] = s.Value(cell.Addr{Row: r, Col: col})
	}
	add("index.hash_build_ms", "ms", timeIt(reps, func() {
		h := index.NewHash()
		for r, v := range vals {
			h.Add(r, v)
		}
	}))
	var bt *index.BTree
	add("index.btree_build_ms", "ms", timeIt(reps, func() {
		bt = index.NewBTree(32)
		for r, v := range vals {
			bt.Add(r, v)
		}
	}))
	// Replace moves rows between the column's existing values and back, as
	// edits do; each pair leaves the tree as built.
	const replaces = 1000
	add("index.btree_replace_us", "us", 1000*timeIt(reps, func() {
		for i := 0; i < replaces; i++ {
			r := 1 + (i*7919)%(len(vals)-1)
			other := vals[1+(i*104729)%(len(vals)-1)]
			bt.Replace(r, vals[r], other)
			bt.CountLE(other)
			bt.Replace(r, other, vals[r])
		}
	})/(2*replaces))
	return out, nil
}
