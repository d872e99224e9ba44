package plan

import (
	"repro/internal/absint"
	"repro/internal/cell"
	"repro/internal/sheet"
)

// ColumnStats is the planner's statistics record for one column: exact
// row-kind counts, a sampled distinct-count estimate, and the sortedness
// facts the sub-linear lookup strategies depend on. Version is the column
// version the statistics were collected under (from Options.ColVersion);
// the consuming engine treats a version mismatch as invalidation, exactly
// like its colVer-keyed sortedness certificates.
type ColumnStats struct {
	Col      int   `json:"col"`
	Rows     int   `json:"rows"`
	NonEmpty int   `json:"non_empty"`
	Numeric  int   `json:"numeric"`
	Formulas int   `json:"formulas"`
	Distinct int   `json:"distinct_est"`
	Sampled  int   `json:"sampled"`
	Version  int64 `json:"-"`
}

// Selectivity estimates the fraction of non-empty cells matching one
// equality probe value — 1/distinct under a uniform-duplication model.
func (cs *ColumnStats) Selectivity() float64 {
	if cs.Distinct == 0 {
		return 0
	}
	return 1 / float64(cs.Distinct)
}

// ExpectedMatches estimates how many of the span's n cells one equality
// probe matches (at least 1: the planner prices the found case, which is
// also the conservative one for early-exit scans).
func (cs *ColumnStats) ExpectedMatches(n int64) int64 {
	if cs.Distinct == 0 {
		return 1
	}
	m := n / int64(cs.Distinct)
	if m < 1 {
		m = 1
	}
	return m
}

// sampleCap is the default number of cells stride-sampled per column for
// the distinct-count estimate. Sampling is deterministic (fixed stride
// from row 1), so two collections over unchanged data always agree — a
// prerequisite for version-keyed caching.
const sampleCap = 256

// Collector derives and caches per-column statistics for one sheet.
// Collection is lazy — only columns a planning decision actually consults
// are scanned — and cached across plan builds through the sheet's cache
// entry, invalidated per column by version.
type Collector struct {
	s     *sheet.Sheet
	ver   func(col int) int64
	fver  int64
	cache *sheetCache
	cap   int
	// inferred is the whole-sheet certificate, derived on first need: only
	// sortedness questions about a column holding a formula require it.
	inferred *absint.SheetCert
	cols     map[int]*ColumnStats
	sorted   map[[3]int]sortedFact
	// collected and certSrc record how this build obtained its inputs
	// (Derivation).
	collected int
	certSrc   CertSource
}

type sortedFact struct {
	ok     bool
	static bool // proven by the static certificate, no rescan needed
}

// newCollector builds a collector over the sheet's cache entry. ver may be
// nil (statistics then carry version 0 and cache entries never invalidate
// — correct for one-shot static analysis over an immutable sheet); fver is
// the sheet's formula-set version, the second half of every column key.
func newCollector(s *sheet.Sheet, ver func(col int) int64, fver int64, cache *sheetCache, capHint int) *Collector {
	if capHint <= 0 {
		capHint = sampleCap
	}
	return &Collector{
		s:     s,
		ver:   ver,
		fver:  fver,
		cache: cache,
		cap:   capHint,
	}
}

func (c *Collector) version(col int) int64 {
	if c.ver == nil {
		return 0
	}
	return c.ver(col)
}

// columnCert returns the column's abstract-interpretation certificate
// (nil for an unused column). A formula-free column is certified from its
// stored values alone and cached by version; only a column holding a
// formula pays the whole-sheet fixpoint, memoized for this build.
func (c *Collector) columnCert(col int) *absint.ColumnCert {
	ent := c.cache.column(col, c.version(col), c.fver)
	if !ent.certDone {
		ent.cert, ent.certOK = absint.ValueColumnCert(c.s, col)
		ent.certDone = true
	}
	if ent.certOK {
		c.certSrc.note(CertValue)
		return ent.cert
	}
	c.certSrc.note(CertInfer)
	if c.inferred == nil {
		c.inferred = absint.InferSheet(c.s).Certify()
	}
	return c.inferred.Column(col)
}

// Column returns the column's statistics, collecting on first use and
// reusing cached results whose version still matches.
func (c *Collector) Column(col int) *ColumnStats {
	if cs, ok := c.cols[col]; ok {
		return cs
	}
	v := c.version(col)
	ent := c.cache.column(col, v, c.fver)
	if ent.stats == nil {
		ent.stats = c.collect(col, v)
		c.collected++
	}
	put(&c.cols, col, ent.stats)
	return ent.stats
}

// collect scans the column once for exact kind counts and stride-samples
// it for the distinct estimate. The estimator is deliberately simple and
// documented: with d distinct values among k samples of an n-row column,
// a saturated sample (d <= k/2, most values repeating) is taken at face
// value (d distinct — low-cardinality key/category columns), while an
// unsaturated one scales linearly (d*n/k — high-cardinality data columns).
// Both cases clamp to [d, nonEmpty].
func (c *Collector) collect(col int, ver int64) *ColumnStats {
	rows := c.s.Rows()
	cs := &ColumnStats{Col: col, Rows: rows, Version: ver}
	for r := 0; r < rows; r++ {
		a := cell.Addr{Row: r, Col: col}
		v := c.s.Value(a)
		if !v.IsEmpty() {
			cs.NonEmpty++
		}
		if v.Kind == cell.Number {
			cs.Numeric++
		}
		if _, isF := c.s.Formula(a); isF {
			cs.Formulas++
		}
	}
	// Deterministic stride sample over the data rows (row 0 is typically a
	// header and excluded, matching the absint certificates' NumericFrom).
	n := rows - 1
	if n < 1 {
		cs.Distinct = cs.NonEmpty
		return cs
	}
	k := c.cap
	if k > n {
		k = n
	}
	stride := n / k
	if stride < 1 {
		stride = 1
	}
	seen := make(map[cell.Value]struct{}, k)
	sampled := 0
	for r := 1; r < rows && sampled < k; r += stride {
		v := c.s.Value(cell.Addr{Row: r, Col: col})
		if v.IsEmpty() {
			continue
		}
		sampled++
		seen[v] = struct{}{}
	}
	cs.Sampled = sampled
	d := len(seen)
	switch {
	case sampled == 0:
		cs.Distinct = 0
	case sampled >= n || d <= sampled/2:
		cs.Distinct = d
	default:
		cs.Distinct = d * cs.NonEmpty / sampled
	}
	if cs.Distinct < d {
		cs.Distinct = d
	}
	if cs.Distinct > cs.NonEmpty {
		cs.Distinct = cs.NonEmpty
	}
	return cs
}

// SortedAsc reports whether rows [r0, r1] of the column form an ascending
// all-Number run, and whether that fact is statically certified (the
// engine then pays no verification rescan on first use). Static coverage
// comes from the abstract interpreter's column certificates; everything
// else falls back to the same concrete rescan the engine's lazy
// certification performs, memoized per span.
func (c *Collector) SortedAsc(col, r0, r1 int) (ok, static bool) {
	if r0 > r1 || r0 < 0 || r1 >= c.s.Rows() {
		return false, false
	}
	k := [3]int{col, r0, r1}
	if f, hit := c.sorted[k]; hit {
		return f.ok, f.static
	}
	f := sortedFact{}
	if cc := c.columnCert(col); cc != nil && cc.CoversAsc(r0, r1) {
		f = sortedFact{ok: true, static: true}
	} else {
		f.ok = absint.SortedAscRun(c.s, col, r0, r1)
	}
	put(&c.sorted, k, f)
	return f.ok, f.static
}

// Cache carries per-sheet derived state across plan builds, each entry
// keyed by the versions it was derived under, so a stale one is never
// consulted — it is silently rederived:
//
//   - column statistics and value-column certificates, keyed by
//     (column version, formula-set version, sheet row count);
//   - the formula-derived analyses (site inventory and recalc facts),
//     keyed by formula-set version, and kept only when the caller supplies
//     Options.FormulaVersion.
//
// Entries are keyed by sheet name and belong to one sheet object: a
// different sheet under the same name starts from an empty entry.
type Cache struct {
	sheets map[string]*sheetCache
}

type sheetCache struct {
	s *sheet.Sheet
	// rows is the row count the column entries were derived at; a sheet
	// that grew or shrank recollects them all.
	rows int
	cols map[int]*colEntry
	// fver is the formula-set version sites and recalc were derived under;
	// nil fields are not derived yet.
	fver   int64
	sites  *siteSet
	recalc *recalcFacts
}

// colEntry is one column's cached derivations under one version pair.
type colEntry struct {
	ver, fver int64
	stats     *ColumnStats
	// cert is the value-column certificate (nil: column unused), valid when
	// certDone; certOK is false when the column holds a formula.
	cert     *absint.ColumnCert
	certOK   bool
	certDone bool
}

// NewCache returns an empty plan cache.
func NewCache() *Cache { return &Cache{sheets: make(map[string]*sheetCache)} }

func newSheetCache(s *sheet.Sheet) *sheetCache {
	return &sheetCache{s: s, rows: s.Rows(), cols: make(map[int]*colEntry)}
}

// sheet returns the sheet's cache entry, replacing one left by a different
// sheet object of the same name.
func (c *Cache) sheet(s *sheet.Sheet) *sheetCache {
	sc, ok := c.sheets[s.Name]
	if !ok || sc.s != s {
		sc = newSheetCache(s)
		c.sheets[s.Name] = sc
	}
	if sc.rows != s.Rows() {
		sc.rows = s.Rows()
		sc.cols = make(map[int]*colEntry)
	}
	return sc
}

// column returns the column's entry for the version pair, resetting it
// when either version moved.
func (sc *sheetCache) column(col int, ver, fver int64) *colEntry {
	ent, ok := sc.cols[col]
	if !ok || ent.ver != ver || ent.fver != fver {
		ent = &colEntry{ver: ver, fver: fver}
		sc.cols[col] = ent
	}
	return ent
}
