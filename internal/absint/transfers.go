package absint

import (
	"math"

	"repro/internal/cell"
	"repro/internal/typecheck"
)

// transfers maps every registered built-in to its abstract transfer: the
// kind/error component (typecheck.Abstract), refined with interval folds
// and constant propagation. The table is total over
// formula.FunctionNames() — lookups included — and the coverage test
// enforces that; a builtin registered
// later still defaults to top in evalCall, which is sound for every total
// function (the latticecheck lint gates this package to keep that default
// discipline in every switch). Filled in init to break the declaration
// cycle through evalNode.
var transfers map[string]func(*callCtx) Value

func init() { transfers = builtinTransfers() }

// sumInterval bounds the sum of at most n streamed numbers each drawn
// from j: any subset of cells may be numeric, so zero is always possible.
func sumInterval(n int, j Interval) Interval {
	if j.IsEmpty() || n <= 0 {
		return Point(0)
	}
	nn := float64(n)
	return Span(math.Min(0, nn*j.Lo), math.Max(0, nn*j.Hi))
}

// countInterval bounds any count over n cells.
func countInterval(n int) Interval { return Span(0, float64(n)) }

// minMaxInterval bounds MIN/MAX: when every streamed cell is statically a
// number the result is one of them; otherwise the all-skipped default 0
// joins in.
func minMaxInterval(j Value) Interval {
	if j.Ab == (typecheck.Abstract{Kinds: typecheck.KNumber}) {
		return j.norm().Num
	}
	return j.norm().Num.Hull(0)
}

// sumIfJoin is the join over the SUMIF/AVERAGEIF sum range: argument 2
// when present, else the test range itself (mirroring sumIfRanges).
func sumIfJoin(c *callCtx) Value {
	i := 0
	if len(c.call.Args) == 3 {
		i = 2
	}
	return c.arg(i).cells(c.inf)
}

func sumIfCount(c *callCtx) int {
	i := 0
	if len(c.call.Args) == 3 {
		i = 2
	}
	return c.arg(i).count()
}

// idxArgErrs joins the error-and-coercion possibilities of scalar
// arguments i and onward (the index/mode/flag tail of the lookup family,
// whose argument errors pass through and whose coercion failures are
// #VALUE!).
func (c *callCtx) idxArgErrs(i int) typecheck.Errs {
	var e typecheck.Errs
	for ; i < len(c.call.Args); i++ {
		a := c.scalar(i)
		e |= a.Ab.Errs | numCoerceErrs(a.Ab)
	}
	return e
}

// tableLookup is the shared VLOOKUP/HLOOKUP transfer: the result is a
// cell of the table (its join bounds kinds, errors, and interval), or one
// of the lookup failure modes, or a passed-through argument error.
func tableLookup(c *callCtx) Value {
	key := c.scalar(0)
	a := c.arg(1)
	if !a.isRange {
		return TopValue()
	}
	j := a.cells(c.inf).norm()
	e := j.Ab.Errs | key.Ab.Errs | c.idxArgErrs(2) |
		typecheck.ENA | typecheck.ERef | typecheck.EValue
	return Value{Ab: typecheck.Abstract{Kinds: j.Ab.Kinds, Errs: e}, Num: j.Num}
}

func builtinTransfers() map[string]func(*callCtx) Value {
	return map[string]func(*callCtx) Value{
		// Aggregates: forEachNumber streams numbers and skips everything
		// else without coercing, propagating cell errors; AVERAGE adds
		// #DIV/0! when no numeric cell is seen, MIN/MAX default to 0.
		"SUM": func(c *callCtx) Value {
			j := c.cellsJoin()
			return number(j.Ab.Errs, sumInterval(c.cellCount(), j.norm().Num))
		},
		"COUNT": func(c *callCtx) Value {
			return number(c.cellErrs(), countInterval(c.cellCount()))
		},
		"MIN": func(c *callCtx) Value {
			j := c.cellsJoin()
			return number(j.Ab.Errs, minMaxInterval(j))
		},
		"MAX": func(c *callCtx) Value {
			j := c.cellsJoin()
			return number(j.Ab.Errs, minMaxInterval(j))
		},
		"PRODUCT": func(c *callCtx) Value { return number(c.cellErrs(), Full()) },
		"AVERAGE": func(c *callCtx) Value {
			j := c.cellsJoin()
			return number(j.Ab.Errs|typecheck.EDiv0, j.norm().Num)
		},
		"COUNTA":     func(c *callCtx) Value { return number(0, countInterval(c.cellCount())) },
		"COUNTBLANK": func(c *callCtx) Value { return number(0, countInterval(c.cellCount())) },
		// The criterion family ignores cell errors (Criterion.Match maps
		// them to a boolean); SUMIF/AVERAGEIF still reject non-range
		// arguments, and their sums draw from the sum range only.
		"COUNTIF": func(c *callCtx) Value { return number(0, countInterval(c.arg(0).count())) },
		"SUMIF": func(c *callCtx) Value {
			e := c.rangeArgErr(0) | c.rangeArgErr(2)
			return number(e, sumInterval(sumIfCount(c), sumIfJoin(c).norm().Num))
		},
		"AVERAGEIF": func(c *callCtx) Value {
			e := c.rangeArgErr(0) | c.rangeArgErr(2) | typecheck.EDiv0
			return number(e, sumIfJoin(c).norm().Num)
		},

		// Logic. A certified-constant condition selects its branch — the
		// checked constant-fold the engine consumes; otherwise the
		// branches join.
		"IF": func(c *callCtx) Value {
			cond := c.scalar(0)
			if cond.Const != nil {
				cv := *cond.Const
				if cv.IsError() {
					return Exactly(cv)
				}
				if b, ok := cv.AsBool(); ok {
					if b {
						return c.scalar(1)
					}
					if len(c.call.Args) == 3 {
						return c.scalar(2)
					}
					return Exactly(cell.Boolean(false))
				}
				return Exactly(cell.Errorf(cell.ErrValue))
			}
			out := Value{
				Ab:  typecheck.Abstract{Errs: cond.Ab.Errs | boolCoerceErrs(cond.Ab)},
				Num: EmptyInterval(),
			}
			out = out.Join(c.scalar(1))
			if len(c.call.Args) == 3 {
				out = out.Join(c.scalar(2))
			} else {
				out.Ab.Kinds |= typecheck.KBool
			}
			return out
		},
		// IFERROR absorbs the first argument's errors entirely; when the
		// argument cannot error at all it passes through untouched,
		// constant and interval included.
		"IFERROR": func(c *callCtx) Value {
			v := c.scalar(0)
			if v.Ab.Errs == 0 {
				return v
			}
			out := Value{Ab: typecheck.Abstract{Kinds: v.Ab.Kinds}, Num: v.norm().Num}
			return out.Join(c.scalar(1))
		},
		"AND": func(c *callCtx) Value { return boolean(c.cellErrs() | typecheck.EValue) },
		"OR":  func(c *callCtx) Value { return boolean(c.cellErrs() | typecheck.EValue) },
		"XOR": func(c *callCtx) Value { return boolean(c.cellErrs() | typecheck.EValue) },
		"NOT": func(c *callCtx) Value {
			v := c.scalar(0)
			return boolean(v.Ab.Errs | boolCoerceErrs(v.Ab))
		},
		// The IS* tests absorb errors by construction.
		"ISBLANK":   func(c *callCtx) Value { return boolean(0) },
		"ISNUMBER":  func(c *callCtx) Value { return boolean(0) },
		"ISTEXT":    func(c *callCtx) Value { return boolean(0) },
		"ISERROR":   func(c *callCtx) Value { return boolean(0) },
		"ISLOGICAL": func(c *callCtx) Value { return boolean(0) },

		// Volatile functions: never constant (the engine's certificate
		// issuance additionally skips any Compiled.Volatile cell). RAND's
		// contract bounds it; date serials are unbounded here. PI is a
		// genuine constant even though it shares the registry section.
		"NOW":   func(c *callCtx) Value { return number(0, Full()) },
		"TODAY": func(c *callCtx) Value { return number(0, Full()) },
		"RAND":  func(c *callCtx) Value { return number(0, Span(0, 1)) },
		"PI":    func(c *callCtx) Value { return Exactly(cell.Num(math.Pi)) },
		"RANDBETWEEN": func(c *callCtx) Value {
			return number(c.scalarErrs()|typecheck.EValue, Full()) // hi < lo is #VALUE!
		},

		// Math: withNum coerces, domain violations are #VALUE!, MOD
		// divides. Monotone functions fold their intervals endpoint-wise;
		// INT's bound covers floor/truncate alike; rounding to a dynamic
		// digit count is unbounded relative to the input, so Full.
		"ABS": func(c *callCtx) Value {
			return number(c.scalarErrs(), numInterval(c.scalar(0)).Abs())
		},
		"EXP": func(c *callCtx) Value {
			iv := numInterval(c.scalar(0))
			if !iv.IsEmpty() {
				iv = Span(math.Exp(iv.Lo), math.Exp(iv.Hi))
			}
			return number(c.scalarErrs(), iv)
		},
		"INT": func(c *callCtx) Value {
			iv := numInterval(c.scalar(0))
			if !iv.IsEmpty() {
				iv = Span(iv.Lo-1, iv.Hi+1)
			}
			return number(c.scalarErrs(), iv)
		},
		"SIGN": func(c *callCtx) Value { return number(c.scalarErrs(), Span(-1, 1)) },
		"SQRT": func(c *callCtx) Value {
			iv := numInterval(c.scalar(0))
			out := EmptyInterval()
			if !iv.IsEmpty() && iv.Hi >= 0 {
				out = Span(math.Sqrt(math.Max(iv.Lo, 0)), math.Sqrt(iv.Hi))
			}
			return number(c.scalarErrs()|typecheck.EValue, out)
		},
		"LN":        func(c *callCtx) Value { return number(c.scalarErrs()|typecheck.EValue, Full()) },
		"LOG10":     func(c *callCtx) Value { return number(c.scalarErrs()|typecheck.EValue, Full()) },
		"LOG":       func(c *callCtx) Value { return number(c.scalarErrs()|typecheck.EValue, Full()) },
		"ROUND":     func(c *callCtx) Value { return number(c.scalarErrs(), Full()) },
		"ROUNDUP":   func(c *callCtx) Value { return number(c.scalarErrs(), Full()) },
		"ROUNDDOWN": func(c *callCtx) Value { return number(c.scalarErrs(), Full()) },
		"POWER":     func(c *callCtx) Value { return number(c.scalarErrs(), Full()) },
		"MOD": func(c *callCtx) Value {
			e := c.scalarErrs()
			if !numInterval(c.scalar(1)).IsEmpty() && !numInterval(c.scalar(1)).Contains(0) {
				// divisor certifiably nonzero
			} else {
				e |= typecheck.EDiv0
			}
			return number(e, Full())
		},

		// Date/time: numeric serials; invalid parts are #VALUE!.
		"DATE":    func(c *callCtx) Value { return number(c.scalarErrs()|typecheck.EValue, Full()) },
		"YEAR":    func(c *callCtx) Value { return number(c.scalarErrs()|typecheck.EValue, Full()) },
		"MONTH":   func(c *callCtx) Value { return number(c.scalarErrs()|typecheck.EValue, Full()) },
		"DAY":     func(c *callCtx) Value { return number(c.scalarErrs()|typecheck.EValue, Full()) },
		"HOUR":    func(c *callCtx) Value { return number(c.scalarErrs()|typecheck.EValue, Full()) },
		"MINUTE":  func(c *callCtx) Value { return number(c.scalarErrs()|typecheck.EValue, Full()) },
		"SECOND":  func(c *callCtx) Value { return number(c.scalarErrs()|typecheck.EValue, Full()) },
		"WEEKDAY": func(c *callCtx) Value { return number(c.scalarErrs()|typecheck.EValue, Full()) },
		"DAYS":    func(c *callCtx) Value { return number(c.scalarErrs()|typecheck.EValue, Full()) },
		"EDATE":   func(c *callCtx) Value { return number(c.scalarErrs()|typecheck.EValue, Full()) },
		"EOMONTH": func(c *callCtx) Value { return number(c.scalarErrs()|typecheck.EValue, Full()) },

		// Multi-criteria aggregates: shape mismatches are #VALUE!; the
		// sum/target range is argument 0.
		"COUNTIFS": func(c *callCtx) Value {
			return number(c.cellErrs()|typecheck.EValue, countInterval(c.arg(0).count()))
		},
		"SUMIFS": func(c *callCtx) Value {
			j := c.arg(0).cells(c.inf)
			return number(c.cellErrs()|typecheck.EValue, sumInterval(c.arg(0).count(), j.norm().Num))
		},
		"MAXIFS": func(c *callCtx) Value {
			j := c.arg(0).cells(c.inf)
			return number(c.cellErrs()|typecheck.EValue, j.norm().Num.Hull(0))
		},
		"MINIFS": func(c *callCtx) Value {
			j := c.arg(0).cells(c.inf)
			return number(c.cellErrs()|typecheck.EValue, j.norm().Num.Hull(0))
		},
		"SUMPRODUCT": func(c *callCtx) Value { return number(c.cellErrs()|typecheck.EValue, Full()) },
		"AVERAGEIFS": func(c *callCtx) Value {
			j := c.arg(0).cells(c.inf)
			return number(c.cellErrs()|typecheck.EValue|typecheck.EDiv0, j.norm().Num)
		},

		// Statistics: order statistics and interpolations stay inside the
		// hull of their inputs; spreads are non-negative; RANK's layout
		// is not modeled.
		"MEDIAN": func(c *callCtx) Value {
			return number(c.cellErrs()|typecheck.EValue, c.cellsJoin().norm().Num)
		},
		"STDEV": func(c *callCtx) Value {
			return number(c.cellErrs()|typecheck.EDiv0|typecheck.EValue, Span(0, math.Inf(1)))
		},
		"VAR": func(c *callCtx) Value {
			return number(c.cellErrs()|typecheck.EDiv0|typecheck.EValue, Span(0, math.Inf(1)))
		},
		"LARGE": func(c *callCtx) Value {
			return number(c.cellErrs()|typecheck.EValue, c.cellsJoin().norm().Num)
		},
		"SMALL": func(c *callCtx) Value {
			return number(c.cellErrs()|typecheck.EValue, c.cellsJoin().norm().Num)
		},
		"RANK": func(c *callCtx) Value {
			return number(c.cellErrs()|typecheck.EValue|typecheck.ENA, Full())
		},
		"PERCENTILE": func(c *callCtx) Value {
			return number(c.cellErrs()|typecheck.EValue, c.cellsJoin().norm().Num)
		},

		// Text: string results carry the empty interval; LEN and FIND are
		// at least non-negative, VALUE can parse to anything.
		"CONCATENATE": func(c *callCtx) Value { return textual(c.textArgErrs()) },
		"CONCAT":      func(c *callCtx) Value { return textual(c.textArgErrs()) },
		"LOWER":       func(c *callCtx) Value { return textual(c.textArgErrs()) },
		"UPPER":       func(c *callCtx) Value { return textual(c.textArgErrs()) },
		"TRIM":        func(c *callCtx) Value { return textual(c.textArgErrs()) },
		"LEFT":        func(c *callCtx) Value { return textual(c.textArgErrs() | typecheck.EValue) },
		"RIGHT":       func(c *callCtx) Value { return textual(c.textArgErrs() | typecheck.EValue) },
		"MID":         func(c *callCtx) Value { return textual(c.textArgErrs() | typecheck.EValue) },
		"SUBSTITUTE":  func(c *callCtx) Value { return textual(c.textArgErrs() | typecheck.EValue) },
		"REPT":        func(c *callCtx) Value { return textual(c.textArgErrs() | typecheck.EValue) },
		"TEXTJOIN":    func(c *callCtx) Value { return textual(c.textArgErrs() | typecheck.EValue) },
		"LEN": func(c *callCtx) Value {
			return number(c.textArgErrs()|typecheck.EValue, Span(0, math.Inf(1)))
		},
		"FIND": func(c *callCtx) Value {
			return number(c.textArgErrs()|typecheck.EValue, Span(0, math.Inf(1)))
		},
		"VALUE": func(c *callCtx) Value { return number(c.textArgErrs()|typecheck.EValue, Full()) },
		"EXACT": func(c *callCtx) Value { return boolean(c.textArgErrs() | typecheck.EValue) },

		// Lookups. The result of a table
		// lookup is a table cell or a failure error; MATCH is a 1-based
		// position into its vector.
		"VLOOKUP": tableLookup,
		"HLOOKUP": tableLookup,
		"MATCH": func(c *callCtx) Value {
			key := c.scalar(0)
			a := c.arg(1)
			if !a.isRange {
				return Exactly(cell.Errorf(cell.ErrValue))
			}
			n := a.rng.Rows()
			if a.rng.Cols() != 1 {
				n = a.rng.Cols()
			}
			e := key.Ab.Errs | typecheck.ENA
			if len(c.call.Args) == 3 {
				e |= c.idxArgErrs(2) | typecheck.EValue // non-integer mode is #VALUE!
			}
			return number(e, Span(1, float64(n)))
		},
		"INDEX": func(c *callCtx) Value {
			a := c.arg(0)
			if !a.isRange {
				return Exactly(cell.Errorf(cell.ErrValue))
			}
			j := a.cells(c.inf).norm()
			e := j.Ab.Errs | c.idxArgErrs(1) | typecheck.ERef | typecheck.EValue
			return Value{Ab: typecheck.Abstract{Kinds: j.Ab.Kinds, Errs: e}, Num: j.Num}
		},
		"CHOOSE": func(c *callCtx) Value {
			k := c.scalar(0)
			out := Value{
				Ab:  typecheck.Abstract{Errs: k.Ab.Errs | numCoerceErrs(k.Ab) | typecheck.EValue},
				Num: EmptyInterval(),
			}
			for i := 1; i < len(c.call.Args); i++ {
				out = out.Join(c.scalar(i))
			}
			return out
		},
		"SWITCH": func(c *callCtx) Value {
			// Join every argument (expression, cases, values, default):
			// a superset of the reachable results, plus #N/A for the
			// no-match-no-default path.
			out := Value{Ab: typecheck.Abstract{Errs: typecheck.ENA}, Num: EmptyInterval()}
			for i := range c.call.Args {
				out = out.Join(c.scalar(i))
			}
			return out
		},
	}
}
