package engine

import (
	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/costmodel"
	"repro/internal/formula"
	"repro/internal/obs"
	"repro/internal/sheet"
)

// This file is the consumption side of the abstract interpreter
// (internal/absint): version-keyed value certificates issued at the
// optimized-install pre-flight and consulted by three engine fast paths —
//
//  1. certified ascending lookup columns serve VLOOKUP/MATCH by binary
//     search instead of a linear scan (formula.Env.SortedAsc);
//  2. certified error-free all-numeric columns fill typed columnar storage
//     for the prefix-sum kernels without per-cell coercion or error
//     branches (prefixFor);
//  3. certified-constant formula cells are skipped by calc passes under a
//     per-use soundness guard (the cached value must still equal the
//     certified constant).
//
// A certificate is a formula-set artifact of the sheet's derived state,
// also keyed by the optState version (lifecycle in docs/ANALYSIS.md).

// valueCertEntry is one sheet's installed value certificate.
type valueCertEntry struct {
	// optVersion invalidates on any cell value change: a certified
	// constant's precedents are ordinary cells, so a single write can turn
	// the claim stale while the constant's own cached value still matches.
	optVersion int64
	cert       *absint.SheetCert
	// skips maps formula cells to certified constants whose cached result
	// agreed with the claim at issuance (the issuance guard). Calc passes
	// re-check the cached value on every use before skipping.
	skips map[cell.Addr]cell.Value
}

// issueValueCert derives and installs a sheet's value certificate.
// Inference reads stored values and formula ASTs only — never the meter —
// so issuance charges nothing, like every other static pre-flight.
func (e *Engine) issueValueCert(s *sheet.Sheet) *valueCertEntry {
	sp := obs.Start("engine.value_cert")
	defer sp.End()
	inf := absint.InferSheet(s)
	cert := inf.Certify()
	ce := &valueCertEntry{
		cert:  cert,
		skips: make(map[cell.Addr]cell.Value, len(cert.Consts)),
	}
	for a, cv := range cert.Consts {
		if s.Value(a) == cv {
			ce.skips[a] = cv
		}
	}
	ss := e.state(s).current()
	if st := ss.opt; st != nil {
		ce.optVersion = st.version
		// Statically certified ascending runs seed the sortedness cache:
		// interval separation already proved the concrete values are an
		// ascending all-Number run, so the first lookup skips even the
		// verification rescan. Formula-free columns holding a number in
		// every data row seed the typed-column certificates, which
		// outlive this certificate until a write into the column.
		for i := range cert.Columns {
			cc := &cert.Columns[i]
			if cc.Dir == absint.DirAsc && cc.NumericFrom <= cc.R1 {
				st.noteSorted(cc.Col, cc.NumericFrom, cc.R1, true)
			}
			if !cc.HasFormula && cc.NumericFrom <= 1 && cc.R1 >= 1 && cc.R1 == s.Rows()-1 {
				st.typed[cc.Col] = s.Rows()
			}
		}
	}
	ss.vcert = ce
	sp.Int("formulas", int64(cert.Formulas)).
		Int("consts", int64(len(ce.skips))).
		Int("columns", int64(len(cert.Columns)))
	return ce
}

// validValueCert returns the sheet's certificate when every claim is still
// in force under the current graph and cell state, nil otherwise. Without
// an optState there is no cell-change versioning, so no certificate is
// ever considered valid.
func (e *Engine) validValueCert(s *sheet.Sheet) *valueCertEntry {
	ss := e.state(s).current()
	if ce := ss.vcert; ce != nil && ss.opt != nil && ss.opt.version == ce.optVersion {
		return ce
	}
	return nil
}

// ValueCert returns the sheet's value certificate, re-deriving it when
// missing or stale. Reports and tests use it; derivation is uncharged.
func (e *Engine) ValueCert(s *sheet.Sheet) *absint.SheetCert {
	if ce := e.validValueCert(s); ce != nil {
		return ce.cert
	}
	return e.issueValueCert(s).cert
}

// certNumericCol reports whether the value certificate proves every
// data-row cell of the column (rows 1..Rows()-1, row 0 being the header)
// is an error-free Number — the same contract the typed value columns
// satisfy, extended to columns only inference can certify (e.g. formula
// columns with statically error-free numeric results).
func (e *Engine) certNumericCol(s *sheet.Sheet, col int) bool {
	if !e.prof.Opt.ValueCerts {
		return false
	}
	ce := e.validValueCert(s)
	if ce == nil {
		return false
	}
	cc := ce.cert.Column(col)
	return cc != nil && cc.ErrorFree && cc.NumericFrom <= 1 && cc.R1 == s.Rows()-1
}

// sheetOf resolves the concrete sheet a formula.Source reads: the host
// sheet behind its evalSource/indexedSrc wrappers, or a foreign sheet
// referenced cross-sheet (Ext hands the *sheet.Sheet out directly).
func (e *Engine) sheetOf(src formula.Source) *sheet.Sheet {
	switch t := src.(type) {
	case evalSource:
		return t.s
	case indexedSrc:
		return t.s
	case *sheet.Sheet:
		return t
	default:
		return nil
	}
}

// certSortedAsc backs formula.Env.SortedAsc: answer from the per-column
// sortedness cache of whichever sheet the lookup actually reads — the
// host sheet or a cross-sheet table (which no column index ever serves,
// making the certificate the only sub-linear path there).
func (e *Engine) certSortedAsc(src formula.Source, meter *costmodel.Meter, col, r0, r1 int) bool {
	s := e.sheetOf(src)
	if s == nil {
		return false
	}
	st := e.state(s).opt
	if st == nil {
		return false
	}
	// Plan-drift: this consult is where the plan's lookup choice meets the
	// actual work; arm the observation whatever the gate answers (a veto
	// routes to the scan the plan priced for a scan-chosen site).
	e.driftNoteLookup(s, st, meter, col, r0, r1, gateLookupBinary)
	if !e.plannedBinarySearch(s, col, r0, r1) {
		// The cost plan priced the scan cheaper for this site (planner.go);
		// answering "not certified" here is sound — the lookup falls back to
		// the linear scan, never to a wrong answer.
		return false
	}
	return st.sortedAsc(s, meter, col, r0, r1)
}

// sortedCert caches one column's ascending-run check, keyed by the
// column's change version and the reorder epoch it was taken under.
type sortedCert struct {
	ver    int64 // colVer[col] at scan time
	epoch  int64 // sortedEpoch at scan time
	r0, r1 int
	ok     bool
}

// noteSorted records a result for the column at its current version and
// reorder epoch.
func (st *optState) noteSorted(col, r0, r1 int, ok bool) {
	st.sorted[col] = sortedCert{ver: st.colVer[col], epoch: st.sortedEpoch, r0: r0, r1: r1, ok: ok}
}

// sortedAsc reports whether rows [r0, r1] of the column currently form an
// ascending all-Number run. Results are cached per column and revalidated
// by version: any write to the column bumps colVer and forces a rescan,
// and a row reorder bumps sortedEpoch (colVer alone cannot catch a
// reorder on a column that was never written through noteCellChange).
// The verification rescan reads the same cached values a linear-scan
// lookup would read at this instant, so a mid-recalculation query is
// answered against exactly the state the naive path sees. The rescan is
// charged like an index build — one CellTouch per cell — and amortized
// across every later lookup at the same column version.
func (st *optState) sortedAsc(s *sheet.Sheet, meter *costmodel.Meter, col, r0, r1 int) bool {
	if r0 < 0 || r1 >= s.Rows() || r0 > r1 {
		return false
	}
	if ok, hit := st.sortedCached(col, r0, r1); hit {
		return ok
	}
	ok := absint.SortedAscRun(s, col, r0, r1)
	if meter != nil {
		meter.Add(costmodel.CellTouch, int64(r1-r0+1))
	}
	st.noteSorted(col, r0, r1, ok)
	return ok
}

// sortedCached answers [r0, r1] from the column's cached check when it is
// still at the column's version and reorder epoch; the plan-drift monitor
// reads it to tell whether a lookup will pay the rescan.
func (st *optState) sortedCached(col, r0, r1 int) (ok, hit bool) {
	sc, cached := st.sorted[col]
	if !cached || sc.ver != st.colVer[col] || sc.epoch != st.sortedEpoch {
		return false, false
	}
	if sc.ok && r0 >= sc.r0 && r1 <= sc.r1 {
		return true, true // sortedness of a run covers every sub-run
	}
	return sc.ok, sc.r0 == r0 && sc.r1 == r1
}
