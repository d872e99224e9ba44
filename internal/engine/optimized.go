package engine

import (
	"math"

	"repro/internal/analyze"
	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/index"
	"repro/internal/sheet"
)

// optState holds the per-sheet optimization structures of §6. Structures
// build lazily on first use (their build cost is charged once, then
// amortized across queries) and are maintained incrementally on edits.
type optState struct {
	version  int64 // bumped on any change; invalidates the formula cache
	hash     map[int]*index.Hash
	btree    map[int]*index.BTree
	prefix   map[int]*index.PrefixSums
	inverted *index.Inverted
	fpCache  map[uint64]fpEntry
	aggs     map[cell.Addr]*aggMat
	// typed holds the numeric value-column certificates seeded from the
	// install-time value certificate (issueValueCert): every data-row cell
	// of a certified column holds a number and the column hosts no
	// formulas, so typed columnar fills skip the per-cell kind dispatch.
	// Each maps to the sheet's row count when certified; rows a later
	// write appends are blank, so the claim holds only at that count.
	// Unlike the value certificate, which any cell change retires, these
	// survive until a write or formula insert could break them
	// (noteCellChange, noteFormulaResult, CopyPaste, rebuildAfterReorder).
	typed map[int]int
	// colVer records, per column, the optState version of the column's
	// last value change; sorted caches ascending-run checks keyed by that
	// version. sortedEpoch bumps on row reorders, which move values
	// between rows without routing each cell through noteCellChange (a
	// never-written column keeps colVer 0 across a sort, so the epoch is
	// what retires its cached entry). See valuecert.go.
	colVer      map[int]int64
	sorted      map[int]sortedCert
	sortedEpoch int64
}

// fpEntry caches one computed formula result by fingerprint (§5.4
// redundant-computation elimination).
type fpEntry struct {
	canonical string
	val       cell.Value
	version   int64
}

// aggKind enumerates the aggregate shapes supported by incremental
// maintenance (§5.5; §6 notes AVGIF needs a count alongside the average).
type aggKind uint8

const (
	aggCountIf aggKind = iota
	aggSum
	aggCount
	aggAverage
)

// aggMat is a materialized aggregate: enough running state to apply a
// single-cell delta in O(1).
type aggMat struct {
	kind aggKind
	rng  cell.Range
	crit formula.Criterion // COUNTIF only
	sum  float64
	n    float64 // matching/numeric cell count
}

func (m *aggMat) value() cell.Value {
	switch m.kind {
	case aggCountIf, aggCount:
		return cell.Num(m.n)
	case aggSum:
		return cell.Num(m.sum)
	default: // aggAverage
		if m.n == 0 {
			return cell.Errorf(cell.ErrDiv0)
		}
		return cell.Num(m.sum / m.n)
	}
}

// newOptState returns empty optimization state; every structure builds
// lazily on first use.
func newOptState() *optState {
	return &optState{
		hash:    make(map[int]*index.Hash),
		btree:   make(map[int]*index.BTree),
		prefix:  make(map[int]*index.PrefixSums),
		fpCache: make(map[uint64]fpEntry),
		aggs:    make(map[cell.Addr]*aggMat),
		typed:   make(map[int]int),
		colVer:  make(map[int]int64),
		sorted:  make(map[int]sortedCert),
	}
}

// buildOptState attaches optimization state to a loaded sheet. Most
// structures build lazily, but the static analyzer's pre-flight runs here:
// columns that several formulas aggregate (analyze.SharedColumnAggregates —
// the shared-subexpression rule's engine-facing form) get their prefix-sum
// indexes eagerly, so the first aggregate query after install is already an
// index probe rather than a full column scan. Install resets the meters
// after setup, so the eager build is charged to load, not to experiments.
func (e *Engine) buildOptState(s *sheet.Sheet) {
	st := newOptState()
	e.state(s).opt = st
	if e.prof.Opt.SharedComputation {
		// Like the rest of setup (§6 builds asynchronously), the eager
		// build is not charged: snapshot and restore the meter around it.
		saved := e.meter
		cols := analyze.SharedColumnAggregates(s, sharedAggMin)
		if e.prof.Opt.CostPlanner {
			// The cost plan prices eager vs lazy per column and replaces
			// the hard-wired shared-use threshold.
			cols = e.plannedEagerCols(s)
		}
		for _, col := range cols {
			st.prefixFor(e, s, col)
		}
		e.meter = saved
	}
}

// sharedAggMin is how many aggregate reads of one column justify building
// its index at install time rather than on first query.
const sharedAggMin = 2

// hashFor returns the column's hash index, building it on first use (the
// build scan is charged — one CellTouch per row — and amortized thereafter).
func (st *optState) hashFor(e *Engine, s *sheet.Sheet, col int) *index.Hash {
	if h, ok := st.hash[col]; ok {
		return h
	}
	h := index.NewHash()
	rows := s.Rows()
	for r := 0; r < rows; r++ {
		h.Add(r, s.Value(cell.Addr{Row: r, Col: col}))
	}
	e.meter.Add(costmodel.CellTouch, int64(rows))
	e.meter.Add(costmodel.IndexProbe, int64(rows))
	st.hash[col] = h
	return h
}

// btreeFor returns the column's ordered index, building it on first use.
func (st *optState) btreeFor(e *Engine, s *sheet.Sheet, col int) *index.BTree {
	if t, ok := st.btree[col]; ok {
		return t
	}
	t := index.NewBTree(32)
	rows := s.Rows()
	for r := 0; r < rows; r++ {
		t.Add(r, s.Value(cell.Addr{Row: r, Col: col}))
	}
	e.meter.Add(costmodel.CellTouch, int64(rows))
	e.meter.Add(costmodel.IndexProbe, int64(rows))
	st.btree[col] = t
	return t
}

// prefixFor returns the column's shared prefix sums, (re)building when
// absent or dirty.
func (st *optState) prefixFor(e *Engine, s *sheet.Sheet, col int) *index.PrefixSums {
	if p, ok := st.prefix[col]; ok && !p.Dirty() {
		return p
	}
	rows := s.Rows()
	vals := make([]float64, rows)
	present := make([]bool, rows)
	errs := make([]bool, rows)
	if (st.typed[col] == rows || e.certNumericCol(s, col)) && rows > 0 {
		// Certified all-numeric column — a value column seeded at install or
		// any column the current value certificate proves error-free
		// numeric: fill the typed columnar storage without per-cell
		// coercion checks. Row 0 is the header, outside the certificate,
		// and keeps the generic dispatch.
		if v := s.Value(cell.Addr{Row: 0, Col: col}); v.Kind == cell.Number {
			vals[0] = v.Num
			present[0] = true
		}
		for r := 1; r < rows; r++ {
			vals[r] = s.Value(cell.Addr{Row: r, Col: col}).Num
			present[r] = true
		}
	} else {
		for r := 0; r < rows; r++ {
			v := s.Value(cell.Addr{Row: r, Col: col})
			if v.Kind == cell.Number {
				vals[r] = v.Num
				present[r] = true
			}
			errs[r] = v.IsError()
		}
	}
	// The metering is identical on both paths — the certificate removes
	// per-cell branch work, not cell touches — so simulated costs do not
	// depend on which fill ran.
	e.meter.Add(costmodel.CellTouch, int64(rows))
	p := index.NewPrefixSums(vals, present, errs)
	st.prefix[col] = p
	return p
}

// invertedFor returns the sheet's inverted token index, building on first
// use (§5.1.2: indexing "the strings in all of the cells of the sheet").
func (st *optState) invertedFor(e *Engine, s *sheet.Sheet) *index.Inverted {
	if st.inverted != nil {
		return st.inverted
	}
	ix := index.NewInverted()
	rows, cols := s.Rows(), s.Cols()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			a := cell.Addr{Row: r, Col: c}
			if v := s.Value(a); v.Kind == cell.Text {
				ix.Add(a, v.Str)
			}
		}
	}
	e.meter.Add(costmodel.CellTouch, int64(rows)*int64(cols))
	st.inverted = ix
	return ix
}

// indexTokenize adapts the inverted index tokenizer for ops.go.
func indexTokenize(q string) []string { return index.Tokenize(q) }

// indexedSrc layers ColumnIndexer over a value source so lookup functions
// can probe the hash index (formula.LookupPolicy.Indexed).
type indexedSrc struct {
	formula.Source
	e  *Engine
	s  *sheet.Sheet
	st *optState
	// meter is the evaluation meter, carried so the drift monitor can
	// snapshot it at gate consults.
	meter *costmodel.Meter
}

// LookupRow implements formula.ColumnIndexer.
func (ix indexedSrc) LookupRow(col int, v cell.Value, lo, hi int) (int, int, bool) {
	h := ix.st.hashFor(ix.e, ix.s, col)
	return h.FirstRow(v, lo, hi)
}

// IndexWorthwhile implements formula.IndexAdvisor: under the planned
// profile an exact lookup probes the hash index only where the cost plan
// chose it. The veto decides before the probe because a probe miss is an
// authoritative #N/A that never falls back to the scan.
func (ix indexedSrc) IndexWorthwhile(col, lo, hi int) bool {
	ix.e.driftNoteLookup(ix.s, ix.st, ix.meter, col, lo, hi, gateLookupHash)
	return ix.e.plannedHashProbe(ix.s, col, lo, hi)
}

// singleColumnRange extracts (col, r0, r1) when the node is a rectangular
// single-column range; the fast paths apply only then.
func singleColumnRange(n formula.Node) (col, r0, r1 int, ok bool) {
	rn, isRange := n.(formula.RangeNode)
	if !isRange {
		return 0, 0, 0, false
	}
	r := rn.Range()
	if r.Cols() != 1 {
		return 0, 0, 0, false
	}
	return r.Start.Col, r.Start.Row, r.End.Row, true
}

// literalValue extracts a literal scalar argument (number, string, bool).
func literalValue(n formula.Node) (cell.Value, bool) {
	switch t := n.(type) {
	case formula.NumberLit:
		return cell.Num(float64(t)), true
	case formula.StringLit:
		return cell.Str(string(t)), true
	case formula.BoolLit:
		return cell.Boolean(bool(t)), true
	default:
		return cell.Value{}, false
	}
}

// fastEval answers a freshly inserted formula from the optimization
// structures when its shape qualifies. It returns ok=false to fall back to
// ordinary evaluation.
func (st *optState) fastEval(e *Engine, s *sheet.Sheet, c *formula.Compiled) (cell.Value, bool) {
	// §5.4: identical-formula elimination by fingerprint.
	if e.prof.Opt.RedundantElimination {
		if ent, hit := st.fpCache[c.Fingerprint]; hit &&
			ent.version == st.version && ent.canonical == c.CanonicalText() {
			e.meter.Add(costmodel.IndexProbe, 1)
			e.meter.Add(costmodel.FormulaEval, 1)
			return ent.val, true
		}
	}

	call, isCall := c.Root.(formula.CallNode)
	if !isCall {
		return cell.Value{}, false
	}

	switch call.Name {
	case "SUM", "COUNT", "AVERAGE":
		if !e.prof.Opt.SharedComputation || len(call.Args) != 1 {
			return cell.Value{}, false
		}
		col, r0, r1, ok := singleColumnRange(call.Args[0])
		if !ok {
			return cell.Value{}, false
		}
		if !e.plannedPrefix(s, col) {
			// The cost plan priced a plain scan under the prefix build's
			// amortized cost for this column's aggregate load.
			return cell.Value{}, false
		}
		// Plan-drift: the snapshot precedes prefixFor so a lazy fill lands in
		// the measured window exactly when the prediction charges the build.
		rec, pred, snap := e.driftAggBegin(s, st, col)
		p := st.prefixFor(e, s, col)
		if p.Errors(r0, r1) > 0 {
			// SUM/COUNT/AVERAGE propagate the range's first error value;
			// the prefix arrays only hold numerics, so a real scan decides.
			return cell.Value{}, false
		}
		e.meter.Add(costmodel.IndexProbe, 2)
		e.meter.Add(costmodel.FormulaEval, 1)
		if rec {
			e.driftRecord(gatePrefixAgg, pred, e.meter.Sub(snap))
		}
		switch call.Name {
		case "SUM":
			return cell.Num(p.Sum(r0, r1)), true
		case "COUNT":
			return cell.Num(float64(p.Count(r0, r1))), true
		default:
			avg, nonEmpty := p.Average(r0, r1)
			if !nonEmpty {
				return cell.Errorf(cell.ErrDiv0), true
			}
			return cell.Num(avg), true
		}

	case "COUNTIF":
		if !e.prof.Opt.HashIndex || len(call.Args) != 2 {
			return cell.Value{}, false
		}
		col, r0, r1, ok := singleColumnRange(call.Args[0])
		if !ok {
			return cell.Value{}, false
		}
		lit, ok := literalValue(call.Args[1])
		if !ok {
			return cell.Value{}, false
		}
		if !e.plannedCountIfIndex(s, col) {
			// Vetoed by the cost plan: too few uses to amortize the index.
			return cell.Value{}, false
		}
		return st.countIfIndexed(e, s, col, r0, r1, lit)
	}
	return cell.Value{}, false
}

// countIfIndexed answers COUNTIF via the hash index (equality) or the
// ordered B-tree (inequality criteria, full-column extent only, since the
// tree is not row-partitioned).
func (st *optState) countIfIndexed(e *Engine, s *sheet.Sheet, col, r0, r1 int, lit cell.Value) (cell.Value, bool) {
	crit := formula.CompileCriterion(lit)
	op, critVal, isEquality := crit.Shape()
	if isEquality {
		rec, pred, snap := e.driftCountIfBegin(s, st, col, true)
		h := st.hashFor(e, s, col)
		count, probes := h.Count(critVal, r0, r1)
		e.meter.Add(costmodel.IndexProbe, int64(probes))
		e.meter.Add(costmodel.FormulaEval, 1)
		if rec {
			e.driftRecord(gateCountIf, pred, e.meter.Sub(snap))
		}
		return cell.Num(float64(count)), true
	}
	// Inequalities need the ordered index over the full column extent.
	if r0 > 1 || r1 < s.Rows()-1 {
		return cell.Value{}, false
	}
	rec, pred, snap := e.driftCountIfBegin(s, st, col, false)
	bt := st.btreeFor(e, s, col)
	var count, probes int
	// Relational criteria count NUMERIC cells only (Criterion semantics);
	// in the tree's total order numbers precede text/bools, so "all
	// numeric cells" is everything at or below +Inf.
	numericCeil := cell.Num(math.Inf(1))
	switch op {
	case formula.OpLT:
		count, probes = bt.CountLT(critVal)
	case formula.OpLE:
		count, probes = bt.CountLE(critVal)
	case formula.OpGT:
		le, p1 := bt.CountLE(critVal)
		all, p2 := bt.CountLE(numericCeil)
		count, probes = all-le, p1+p2
	case formula.OpGE:
		lt, p1 := bt.CountLT(critVal)
		all, p2 := bt.CountLE(numericCeil)
		count, probes = all-lt, p1+p2
	case formula.OpNE:
		// "<>x" counts every non-blank cell not equal to x; blanks are
		// not indexed, so the tree's size is exactly the non-blank count.
		le, p1 := bt.CountLE(critVal)
		lt, p2 := bt.CountLT(critVal)
		count, probes = bt.Len()-(le-lt), p1+p2
	default:
		return cell.Value{}, false
	}
	// The tree spans the whole column; subtract rows outside [r0, r1]
	// (the header row under the full-extent guard) that the criterion
	// counts.
	hdr := s.Value(cell.Addr{Row: 0, Col: col})
	if r0 == 1 && crit.Match(hdr) {
		count--
	}
	e.meter.Add(costmodel.IndexProbe, int64(probes))
	e.meter.Add(costmodel.FormulaEval, 1)
	if rec {
		e.driftRecord(gateCountIf, pred, e.meter.Sub(snap))
	}
	return cell.Num(float64(count)), true
}

// noteFormulaResult records a computed formula in the fingerprint cache and
// registers qualifying aggregates for incremental maintenance.
func (st *optState) noteFormulaResult(e *Engine, s *sheet.Sheet, at cell.Addr, c *formula.Compiled, v cell.Value) {
	// A formula now lives in this column; its future re-evaluations write
	// caches directly (no per-cell notification), so the value-column
	// certificate no longer holds.
	delete(st.typed, at.Col)
	// External formulae are excluded alongside volatiles: a fingerprint hit
	// would serve a value computed against another sheet's earlier state,
	// and the version guard only tracks this sheet.
	if e.prof.Opt.RedundantElimination && !c.Volatile && !c.External {
		st.fpCache[c.Fingerprint] = fpEntry{
			canonical: c.CanonicalText(),
			val:       v,
			version:   st.version,
		}
	}
	if !e.prof.Opt.IncrementalAggregates {
		return
	}
	call, isCall := c.Root.(formula.CallNode)
	if !isCall {
		return
	}
	switch call.Name {
	case "COUNTIF":
		if len(call.Args) != 2 {
			return
		}
		col, r0, r1, ok := singleColumnRange(call.Args[0])
		if !ok {
			return
		}
		lit, ok := literalValue(call.Args[1])
		if !ok || !v.IsNumber() {
			return
		}
		st.aggs[at] = &aggMat{
			kind: aggCountIf,
			rng:  cell.ColRange(col, r0, r1),
			crit: formula.CompileCriterion(lit),
			n:    v.Num,
		}
	case "SUM", "COUNT", "AVERAGE":
		if len(call.Args) != 1 {
			return
		}
		col, r0, r1, ok := singleColumnRange(call.Args[0])
		if !ok {
			return
		}
		p := st.prefixFor(e, s, col)
		if p.Errors(r0, r1) > 0 {
			// The range's error cells make the aggregate an error value;
			// running numeric state cannot represent that, so don't
			// materialize (the formula recomputes through the dirty path).
			return
		}
		m := &aggMat{rng: cell.ColRange(col, r0, r1)}
		m.sum = p.Sum(r0, r1)
		m.n = float64(p.Count(r0, r1))
		switch call.Name {
		case "SUM":
			m.kind = aggSum
		case "COUNT":
			m.kind = aggCount
		default:
			m.kind = aggAverage
		}
		st.aggs[at] = m
	}
}

// noteCellChange maintains every built structure for one cell's value
// change, and applies O(1) deltas to the materialized aggregates covering
// it. Called before the sheet is updated (old is still in place).
func (st *optState) noteCellChange(e *Engine, s *sheet.Sheet, a cell.Addr, old, new cell.Value) {
	st.version++
	st.colVer[a.Col] = st.version
	// Writing over a cell that hosted a materialized aggregate retires the
	// materialization (the formula itself is being replaced by a value).
	delete(st.aggs, a)
	// A non-numeric write into a data row breaks the column's all-numeric
	// certificate for good; future fills fall back to generic dispatch.
	// (Header-row writes are outside the certificate.)
	if a.Row > 0 && new.Kind != cell.Number {
		delete(st.typed, a.Col)
	}
	if h, ok := st.hash[a.Col]; ok {
		h.Replace(a.Row, old, new)
		e.meter.Add(costmodel.IndexProbe, 2)
	}
	if t, ok := st.btree[a.Col]; ok {
		t.Replace(a.Row, old, new)
		e.meter.Add(costmodel.IndexProbe, 2)
	}
	if p, ok := st.prefix[a.Col]; ok {
		p.Update()
	}
	if st.inverted != nil && (old.Kind == cell.Text || new.Kind == cell.Text) {
		oldText, newText := "", ""
		if old.Kind == cell.Text {
			oldText = old.Str
		}
		if new.Kind == cell.Text {
			newText = new.Str
		}
		st.inverted.Replace(a, oldText, newText)
		e.meter.Add(costmodel.IndexProbe, 2)
	}
	if !e.prof.Opt.IncrementalAggregates {
		return
	}
	for at, m := range st.aggs {
		if !m.rng.Contains(a) {
			continue
		}
		if m.kind != aggCountIf && (old.IsError() || new.IsError()) {
			// An error value entering (or leaving) the range switches the
			// aggregate between numeric and error results; the running
			// numeric state cannot express that. Retire the
			// materialization — the caller's recalc pass recomputes the
			// formula for real. (COUNTIF keeps its delta: criteria treat
			// error cells as ordinary non-matching values.)
			delete(st.aggs, at)
			continue
		}
		m.applyDelta(e, old, new)
		s.SetCachedValue(at, m.value())
		e.meter.Add(costmodel.CellWrite, 1)
	}
}

// applyDelta updates the running aggregate state for old -> new.
func (m *aggMat) applyDelta(e *Engine, old, new cell.Value) {
	switch m.kind {
	case aggCountIf:
		e.meter.Add(costmodel.Compare, 2)
		if m.crit.Match(old) {
			m.n--
		}
		if m.crit.Match(new) {
			m.n++
		}
	default:
		if old.Kind == cell.Number {
			m.sum -= old.Num
			m.n--
		}
		if new.Kind == cell.Number {
			m.sum += new.Num
			m.n++
		}
		e.meter.Add(costmodel.IndexProbe, 1)
	}
}

// applyDeltas finishes a SetCell under incremental maintenance: aggregates
// were already updated by noteCellChange; any remaining (non-materialized)
// dependent formulae recompute normally.
func (st *optState) applyDeltas(e *Engine, s *sheet.Sheet, a cell.Addr, old, new cell.Value) {
	seeds := []cell.Addr{a}
	// Volatile formulae refresh on every calculation pass, exactly as in
	// recalcDirty; without this seeding the incremental path would diverge
	// from the naive profiles on sheets hosting NOW/RAND formulae.
	if vol := s.VolatileCells(); len(vol) > 0 {
		venv := e.env(s, &e.meter, false, true)
		for _, va := range vol {
			fc, ok := s.Formula(va)
			if !ok {
				continue
			}
			venv.DR, venv.DC = fc.DeltaAt(va)
			e.setCached(s, va, formula.Eval(fc.Code, venv))
		}
		seeds = append(seeds, vol...)
	}
	order, cyclic := e.dirtyOrder(s, seeds, &e.meter)
	env := e.env(s, &e.meter, false, true)
	for _, fa := range order {
		if _, materialized := st.aggs[fa]; materialized {
			continue // already up to date via the delta
		}
		fc, ok := s.Formula(fa)
		if !ok {
			continue
		}
		env.DR, env.DC = fc.DeltaAt(fa)
		e.driftArm()
		v := formula.Eval(fc.Code, env)
		e.driftClose()
		e.setCached(s, fa, v)
	}
	for _, fa := range cyclic {
		e.setCached(s, fa, cell.Errorf(cell.ErrCycle))
	}
}

// rebuildAfterReorder drops row-keyed structures after a row permutation;
// they rebuild lazily on next use. Materialized aggregates are also
// retired: they are keyed by the hosting cell's address, which the
// permutation moved (their formulae re-register on the next insert; until
// then edits recompute them through the ordinary dirty path). Row
// structure changed (a permutation keeps a column's value multiset, but
// inserts/deletes do not), so the certificates go too rather than reason
// about which survive; they are not rebuilt until the next install. The
// version and reorder epoch advance, retiring fingerprint-cache entries and
// every column's cached facts.
func (st *optState) rebuildAfterReorder() {
	version, epoch := st.version+1, st.sortedEpoch+1
	*st = *newOptState()
	st.version, st.sortedEpoch = version, epoch
}
