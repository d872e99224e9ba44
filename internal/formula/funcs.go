package formula

import (
	"sort"

	"repro/internal/cell"
	"repro/internal/costmodel"
)

// function describes one built-in. maxArgs == -1 means variadic.
type function struct {
	minArgs int
	maxArgs int
	impl    func(env *Env, args []operand) cell.Value
}

// functions is the built-in registry. Names are uppercase; the parser
// uppercases call names, so lookups are exact.
var functions = map[string]function{}

// register installs a built-in; it panics on duplicates to catch
// copy-paste mistakes at init time.
func register(name string, minArgs, maxArgs int, impl func(env *Env, args []operand) cell.Value) {
	if _, dup := functions[name]; dup {
		panic("formula: duplicate function " + name)
	}
	functions[name] = function{minArgs: minArgs, maxArgs: maxArgs, impl: impl}
}

// HasFunction reports whether a built-in with the given (case-sensitive,
// uppercase) name exists.
func HasFunction(name string) bool {
	_, ok := functions[name]
	return ok
}

// FunctionCount returns the number of registered built-ins (the benchmark
// taxonomy cites ~400 for Excel; we implement the subset the paper
// exercises plus the common core).
func FunctionCount() int { return len(functions) }

// FunctionNames returns the names of every registered built-in, sorted.
func FunctionNames() []string {
	out := make([]string, 0, len(functions))
	for name := range functions {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FunctionArity returns the registered argument bounds of a built-in
// (max == -1 means variadic); ok is false for unknown names. The abstract
// interpreter (internal/absint) uses this to mirror evalCall's arity
// validation without evaluating.
func FunctionArity(name string) (min, max int, ok bool) {
	f, ok := functions[name]
	return f.minArgs, f.maxArgs, ok
}

func init() {
	// Aggregates (Table 1 "Aggregate": SUM, AVG, COUNT and conditional
	// variants).
	register("SUM", 1, -1, fnSum)
	register("AVERAGE", 1, -1, fnAverage)
	register("COUNT", 1, -1, fnCount)
	register("COUNTA", 1, -1, fnCountA)
	register("COUNTBLANK", 1, 1, fnCountBlank)
	register("MIN", 1, -1, fnMin)
	register("MAX", 1, -1, fnMax)
	register("PRODUCT", 1, -1, fnProduct)
	register("COUNTIF", 2, 2, fnCountIf)
	register("SUMIF", 2, 3, fnSumIf)
	register("AVERAGEIF", 2, 3, fnAverageIf)
}

// forEachNumber streams the numeric values of a set of operands, skipping
// non-numeric cells (standard aggregate semantics). It stops early if f
// returns false.
func forEachNumber(env *Env, args []operand, f func(x float64) bool) cell.Value {
	var bad cell.Value
	for _, a := range args {
		stop := false
		a.eachCell(env, func(v cell.Value) bool {
			if v.IsError() {
				bad = v
				stop = true
				return false
			}
			if v.Kind == cell.Number {
				if !f(v.Num) {
					stop = true
					return false
				}
			}
			return true
		})
		if stop && bad.IsError() {
			return bad
		}
		if stop {
			break
		}
	}
	return cell.Value{}
}

func fnSum(env *Env, args []operand) cell.Value {
	var sum float64
	if e := forEachNumber(env, args, func(x float64) bool { sum += x; return true }); e.IsError() {
		return e
	}
	return cell.Num(sum)
}

func fnAverage(env *Env, args []operand) cell.Value {
	var sum float64
	var n int
	if e := forEachNumber(env, args, func(x float64) bool { sum += x; n++; return true }); e.IsError() {
		return e
	}
	if n == 0 {
		return cell.Errorf(cell.ErrDiv0)
	}
	return cell.Num(sum / float64(n))
}

func fnCount(env *Env, args []operand) cell.Value {
	var n int
	if e := forEachNumber(env, args, func(float64) bool { n++; return true }); e.IsError() {
		return e
	}
	return cell.Num(float64(n))
}

func fnCountA(env *Env, args []operand) cell.Value {
	var n int
	for _, a := range args {
		a.eachCell(env, func(v cell.Value) bool {
			if !v.IsEmpty() {
				n++
			}
			return true
		})
	}
	return cell.Num(float64(n))
}

func fnCountBlank(env *Env, args []operand) cell.Value {
	var n int
	args[0].eachCell(env, func(v cell.Value) bool {
		if v.IsEmpty() {
			n++
		}
		return true
	})
	return cell.Num(float64(n))
}

func fnMin(env *Env, args []operand) cell.Value {
	best, seen := 0.0, false
	if e := forEachNumber(env, args, func(x float64) bool {
		if !seen || x < best {
			best, seen = x, true
		}
		return true
	}); e.IsError() {
		return e
	}
	return cell.Num(best)
}

func fnMax(env *Env, args []operand) cell.Value {
	best, seen := 0.0, false
	if e := forEachNumber(env, args, func(x float64) bool {
		if !seen || x > best {
			best, seen = x, true
		}
		return true
	}); e.IsError() {
		return e
	}
	return cell.Num(best)
}

func fnProduct(env *Env, args []operand) cell.Value {
	prod, seen := 1.0, false
	if e := forEachNumber(env, args, func(x float64) bool { prod *= x; seen = true; return true }); e.IsError() {
		return e
	}
	if !seen {
		return cell.Num(0)
	}
	return cell.Num(prod)
}

func fnCountIf(env *Env, args []operand) cell.Value {
	crit := env.criterion(args[1].scalar(env))
	var n int
	args[0].eachCell(env, func(v cell.Value) bool {
		env.add(costmodel.Compare, 1)
		if crit.Match(v) {
			n++
		}
		return true
	})
	return cell.Num(float64(n))
}

// sumIfRanges resolves the (range, criteria [, sum_range]) argument pattern
// shared by SUMIF and AVERAGEIF: values are tested in the first range and
// aggregated from the parallel cells of the sum range (or the test range
// itself when absent). The operands keep their sources, so the test range
// may live on a foreign sheet while the sum range is local (or vice versa).
func sumIfRanges(env *Env, args []operand) (test, sum operand, crit Criterion, errv cell.Value) {
	if !args[0].isRange {
		return test, sum, crit, cell.Errorf(cell.ErrValue)
	}
	test = args[0]
	crit = env.criterion(args[1].scalar(env))
	sum = test
	if len(args) == 3 {
		if !args[2].isRange {
			return test, sum, crit, cell.Errorf(cell.ErrValue)
		}
		sum = args[2]
	}
	return test, sum, crit, cell.Value{}
}

func fnSumIf(env *Env, args []operand) cell.Value {
	test, sumRng, crit, errv := sumIfRanges(env, args)
	if errv.IsError() {
		return errv
	}
	var sum float64
	foldIf(env, test, sumRng, crit, func(x float64) { sum += x })
	return cell.Num(sum)
}

func fnAverageIf(env *Env, args []operand) cell.Value {
	test, sumRng, crit, errv := sumIfRanges(env, args)
	if errv.IsError() {
		return errv
	}
	var sum float64
	var n int
	foldIf(env, test, sumRng, crit, func(x float64) { sum += x; n++ })
	if n == 0 {
		return cell.Errorf(cell.ErrDiv0)
	}
	return cell.Num(sum / float64(n))
}

// foldIf walks the test range; for cells matching the criterion it feeds
// the numeric value at the corresponding offset of the sum range to f.
// Each range reads from its own operand's source.
func foldIf(env *Env, test, sum operand, crit Criterion, f func(x float64)) {
	testSrc, sumSrc := test.source(env), sum.source(env)
	tr, sr := test.rng, sum.rng
	for dr := 0; dr <= tr.End.Row-tr.Start.Row; dr++ {
		for dc := 0; dc <= tr.End.Col-tr.Start.Col; dc++ {
			env.rangeTouch(1)
			env.add(costmodel.Compare, 1)
			tv := testSrc.Value(cell.Addr{Row: tr.Start.Row + dr, Col: tr.Start.Col + dc})
			if !crit.Match(tv) {
				continue
			}
			env.rangeTouch(1)
			sv := sumSrc.Value(cell.Addr{Row: sr.Start.Row + dr, Col: sr.Start.Col + dc})
			if sv.Kind == cell.Number {
				f(sv.Num)
			}
		}
	}
}
