package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sheet"
)

// session is one engine with its workbook, driven by one client.
type session struct {
	e   *engine.Engine
	gen *gen
	// work sums Result.Work over every engine call of the counted actions.
	work costmodel.Meter
}

// setUp installs a freshly generated workbook, inserts the workload's
// set-up formulas and runs the warm-up tour. It returns the set-up time,
// measured from handing the workbook to Install; a GC runs before it.
func setUp(w *workloadDef, seed uint64) (*session, time.Duration, error) {
	wb := w.build(seed)
	runtime.GC()
	t0 := time.Now()
	e := engine.New(w.Profile())
	if err := e.Install(wb); err != nil {
		return nil, 0, fmt.Errorf("install: %w", err)
	}
	for _, f := range w.setup(w.Rows, seed) {
		if _, _, err := e.InsertFormula(wb.Sheet(f.Sheet), f.At, f.Text); err != nil {
			return nil, 0, fmt.Errorf("set-up formula %s: %w", f.Text, err)
		}
	}
	s := &session{e: e, gen: newGen(w, seed)}
	// Fill every scratch cell once, so formula inserts in the stream
	// overwrite a formula and the number of formulas stays constant.
	for i := 0; i < scratchCells; i++ {
		f := s.gen.ops.formula()
		if _, _, err := e.InsertFormula(wb.Sheet(f.Sheet), f.At, f.Text); err != nil {
			return nil, 0, fmt.Errorf("scratch formula %s: %w", f.Text, err)
		}
	}
	for _, a := range s.gen.tour() {
		if _, err := s.do(a, nil); err != nil {
			return nil, 0, fmt.Errorf("warm-up %s: %w", a.Cls, err)
		}
	}
	return s, time.Since(t0), nil
}

// do runs one action and, for a settled action, its settle edit, and
// returns how long the settle edit took. Work accumulates into work when it
// is non-nil. A panic inside the engine is recovered and returned as an
// error.
func (s *session) do(a action, work *costmodel.Meter) (settle time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic in %s: %v", a.Cls, r)
		}
	}()
	add := func(r engine.Result) {
		if work != nil {
			for m := costmodel.Metric(0); int(m) < costmodel.NumMetrics; m++ {
				work.Add(m, r.Work.Count(m))
			}
		}
	}
	wb := s.e.Workbook()
	sh := wb.Sheet(a.Sheet)
	if sh == nil {
		return 0, fmt.Errorf("%s: no sheet %q", a.Cls, a.Sheet)
	}
	var r engine.Result
	switch a.Cls {
	case clsEdit:
		r, err = s.e.SetCell(sh, a.At, changed(sh, a.At, a.Val, a.Alt))
	case clsRead:
		_, r = s.e.CellValue(sh, a.At)
	case clsFormula:
		_, r, err = s.e.InsertFormula(sh, a.At, a.Text)
	case clsSort:
		r, err = s.e.Sort(sh, a.Col, true, a.Rows)
	case clsFilter:
		_, r, err = s.e.Filter(sh, a.Col, a.Val, a.Rows)
		s.e.ClearFilter(sh)
	case clsFind:
		_, r, err = s.e.FindReplace(sh, a.Text, a.Repl)
	case clsPivot:
		_, r, err = s.e.PivotTable(sh, a.Col, a.Col2, a.Rows)
	case clsPaste:
		_, r, err = s.e.CopyPaste(sh, a.Src, a.At)
	case clsRowEdit:
		if a.Rows > 0 {
			r, err = s.e.InsertRows(sh, a.At.Row, a.Rows)
		} else {
			r, err = s.e.DeleteRows(sh, a.At.Row, -a.Rows)
		}
	default:
		return 0, fmt.Errorf("unknown class %d", a.Cls)
	}
	add(r)
	if err != nil || !a.Cls.settled() {
		return 0, err
	}
	st := wb.Sheet(a.Settle.Sheet)
	if st == nil {
		return 0, fmt.Errorf("settle edit: no sheet %q", a.Settle.Sheet)
	}
	t0 := time.Now()
	r, err = s.e.SetCell(st, a.Settle.At, changed(st, a.Settle.At, a.Settle.Val, a.Settle.Alt))
	settle = time.Since(t0)
	add(r)
	return settle, err
}

// changed returns v, or alt when the cell already holds v.
func changed(s *sheet.Sheet, at cell.Addr, v, alt cell.Value) cell.Value {
	if s.Value(at) == v {
		return alt
	}
	return v
}

// roundStats is what one round of a stream measured.
type roundStats struct {
	actions  int
	settled  int
	settleMS float64 // settle-edit time summed over settled actions
	wall     time.Duration
	mallocs  uint64
	allocB   uint64
	gcCycles uint32
	gc       gcCPU // CPU time the round spent, in total and in GC
}

func (r *roundStats) add(o roundStats) {
	r.actions += o.actions
	r.settled += o.settled
	r.settleMS += o.settleMS
	r.wall += o.wall
	r.mallocs += o.mallocs
	r.allocB += o.allocB
	r.gcCycles += o.gcCycles
	r.gc.gc += o.gc.gc
	r.gc.busy += o.gc.busy
}

// streamStats is what one timed stream measured.
type streamStats struct {
	lat [numClasses][]float64 // per-class latencies, ms
	// roundEdits[i] is the index in lat[clsEdit] where round i starts.
	roundEdits []int
	rounds     []roundStats
	traced     bool // every other round ran traced
	counted    int  // actions whose work went into session.work
	failed     int
	errs       []string
}

// total sums the untraced rounds, or the traced ones.
func (st *streamStats) total(traced bool) roundStats {
	var t roundStats
	for i, r := range st.rounds {
		if (st.traced && tracedRound(i)) == traced {
			t.add(r)
		}
	}
	return t
}

// all sums every round.
func (st *streamStats) all() roundStats {
	t := st.total(false)
	t.add(st.total(true))
	return t
}

// stopRule ends a stream at the first round boundary at which the time
// budget is spent, at least minEdits edits were timed and at least
// minRounds rounds ran; maxRounds, when positive, ends it after that many
// rounds regardless.
type stopRule struct {
	budget    time.Duration
	minEdits  int
	minRounds int
	maxRounds int
}

func (r stopRule) done(st *streamStats, elapsed time.Duration) bool {
	n := len(st.rounds)
	if r.maxRounds > 0 {
		return n >= r.maxRounds
	}
	return elapsed >= r.budget && len(st.lat[clsEdit]) >= r.minEdits && n >= r.minRounds
}

// tracedRound reports whether round i of a traced stream runs with obs
// spans and counters on. Traced and untraced rounds alternate, so the
// tracing overhead is measured against rounds timed under the same machine
// conditions; round 0, whose meter counts are kept, is untraced.
func tracedRound(i int) bool { return i%2 == 1 }

// run times the stream round by round. countRounds, when positive, limits
// the Result.Work accumulation to the first rounds, so meter counts do not
// depend on how many rounds the time budget allowed. With a tally, every
// other round runs traced and its spans go into the tally.
func (s *session) run(stop stopRule, countRounds int, tally *spanTally) *streamStats {
	st := &streamStats{traced: tally != nil}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	start := time.Now()
	for !stop.done(st, time.Since(start)) {
		i := len(st.rounds)
		traced := tally != nil && tracedRound(i)
		var work *costmodel.Meter
		if countRounds <= 0 || i < countRounds {
			work = &s.work
		}
		var r roundStats
		st.roundEdits = append(st.roundEdits, len(st.lat[clsEdit]))
		gc0 := readGCCPU()
		runtime.ReadMemStats(&ms0)
		obs.SetEnabled(traced)
		r0 := time.Now()
		for _, a := range s.gen.round() {
			t0 := time.Now()
			settle, err := s.do(a, work)
			d := time.Since(t0)
			r.actions++
			if work != nil {
				st.counted++
			}
			if a.Cls.settled() {
				r.settled++
				r.settleMS += ms(settle)
			}
			if err != nil {
				st.failed++
				if len(st.errs) < 5 {
					st.errs = append(st.errs, err.Error())
				}
			}
			st.lat[a.Cls] = append(st.lat[a.Cls], ms(d))
			if traced {
				tally.add(obs.Take(), d)
			}
		}
		r.wall = time.Since(r0)
		obs.SetEnabled(false)
		runtime.ReadMemStats(&ms1)
		r.gc = readGCCPU().sub(gc0)
		r.mallocs = ms1.Mallocs - ms0.Mallocs
		r.allocB = ms1.TotalAlloc - ms0.TotalAlloc
		r.gcCycles = ms1.NumGC - ms0.NumGC
		st.rounds = append(st.rounds, r)
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// snapshot records every cell value of every sheet.
func snapshot(wb *sheet.Workbook) map[string][][]cell.Value {
	out := make(map[string][][]cell.Value, wb.Len())
	for _, s := range wb.Sheets() {
		rows := make([][]cell.Value, s.Rows())
		for r := range rows {
			rows[r] = make([]cell.Value, s.Cols())
			for c := range rows[r] {
				rows[r][c] = s.Value(cell.Addr{Row: r, Col: c})
			}
		}
		out[s.Name] = rows
	}
	return out
}

func sameValue(a, b cell.Value) bool {
	if a.Kind == b.Kind && a.Str == b.Str && math.IsNaN(a.Num) && math.IsNaN(b.Num) {
		return true
	}
	return a == b
}

// checkOutput records the session's workbook, re-evaluates it from scratch
// by installing it into a fresh excel engine, and compares every cell. It
// returns the number of mismatching cells and a description of the first.
func checkOutput(wb *sheet.Workbook) (int, string) {
	before := snapshot(wb)
	if err := engine.New(engine.ExcelProfile()).Install(wb); err != nil {
		return 1, "reference install: " + err.Error()
	}
	after := snapshot(wb)
	bad, first := 0, ""
	for _, s := range wb.Sheets() {
		b, a := before[s.Name], after[s.Name]
		if len(a) != len(b) {
			bad++
			if first == "" {
				first = fmt.Sprintf("%s: %d rows, reference has %d", s.Name, len(b), len(a))
			}
			continue
		}
		for r := range a {
			for c := range a[r] {
				if c < len(b[r]) && sameValue(a[r][c], b[r][c]) {
					continue
				}
				bad++
				if first == "" {
					var got cell.Value
					if c < len(b[r]) {
						got = b[r][c]
					}
					first = fmt.Sprintf("%s!%s: engine %v, reference %v",
						s.Name, cell.Addr{Row: r, Col: c}, got, a[r][c])
				}
			}
		}
	}
	return bad, first
}
