package formula

import (
	"repro/internal/cell"
	"repro/internal/costmodel"
)

// Multi-criteria conditional aggregates (COUNTIFS/SUMIFS/AVERAGEIFS/
// MAXIFS/MINIFS) and SUMPRODUCT — the "conditional variants" family of
// Table 1's aggregate category beyond the single-criterion forms §4.3.3
// benchmarks.

func init() {
	register("COUNTIFS", 2, -1, fnCountIfs)
	register("SUMIFS", 3, -1, fnSumIfs)
	register("AVERAGEIFS", 3, -1, fnAverageIfs)
	register("MAXIFS", 3, -1, fnMaxIfs)
	register("MINIFS", 3, -1, fnMinIfs)
	register("SUMPRODUCT", 1, -1, fnSumProduct)
}

// critPair is one (range, criterion) clause of an *IFS call; src is the
// sheet the range reads from (nil = the host sheet).
type critPair struct {
	rng  cell.Range
	crit Criterion
	src  Source
}

// parseCritPairs validates and compiles the alternating range/criterion
// tail of an *IFS call; every range must match the first range's shape.
func parseCritPairs(env *Env, args []operand, shape cell.Range) ([]critPair, cell.Value) {
	if len(args)%2 != 0 {
		return nil, cell.Errorf(cell.ErrValue)
	}
	pairs := make([]critPair, 0, len(args)/2)
	for i := 0; i < len(args); i += 2 {
		if !args[i].isRange {
			return nil, cell.Errorf(cell.ErrValue)
		}
		r := args[i].rng
		if r.Rows() != shape.Rows() || r.Cols() != shape.Cols() {
			return nil, cell.Errorf(cell.ErrValue)
		}
		pairs = append(pairs, critPair{
			rng:  r,
			crit: env.criterion(args[i+1].scalar(env)),
			src:  args[i].src,
		})
	}
	return pairs, cell.Value{}
}

// foldIfs walks the shape range cell-parallel across all criteria ranges,
// invoking f with the value from the fold range when every criterion holds.
// Each range reads from its own source (cross-sheet clauses allowed).
func foldIfs(env *Env, fold operand, pairs []critPair, f func(v cell.Value)) {
	foldSrc := fold.source(env)
	rows, cols := fold.rng.Rows(), fold.rng.Cols()
	for dr := 0; dr < rows; dr++ {
		for dc := 0; dc < cols; dc++ {
			match := true
			for _, p := range pairs {
				env.rangeTouch(1)
				env.add(costmodel.Compare, 1)
				src := p.src
				if src == nil {
					src = env.Src
				}
				v := src.Value(cell.Addr{Row: p.rng.Start.Row + dr, Col: p.rng.Start.Col + dc})
				if !p.crit.Match(v) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			env.rangeTouch(1)
			f(foldSrc.Value(cell.Addr{Row: fold.rng.Start.Row + dr, Col: fold.rng.Start.Col + dc}))
		}
	}
}

func fnCountIfs(env *Env, args []operand) cell.Value {
	if !args[0].isRange {
		return cell.Errorf(cell.ErrValue)
	}
	pairs, errv := parseCritPairs(env, args, args[0].rng)
	if errv.IsError() {
		return errv
	}
	n := 0
	foldIfs(env, args[0], pairs, func(cell.Value) { n++ })
	return cell.Num(float64(n))
}

// ifsFold resolves the SUMIFS-style signature (fold_range, then
// criteria pairs) and streams matching fold values to f.
func ifsFold(env *Env, args []operand, f func(v cell.Value)) cell.Value {
	if !args[0].isRange {
		return cell.Errorf(cell.ErrValue)
	}
	pairs, errv := parseCritPairs(env, args[1:], args[0].rng)
	if errv.IsError() {
		return errv
	}
	foldIfs(env, args[0], pairs, f)
	return cell.Value{}
}

func fnSumIfs(env *Env, args []operand) cell.Value {
	var sum float64
	if e := ifsFold(env, args, func(v cell.Value) {
		if v.Kind == cell.Number {
			sum += v.Num
		}
	}); e.IsError() {
		return e
	}
	return cell.Num(sum)
}

func fnAverageIfs(env *Env, args []operand) cell.Value {
	var sum float64
	n := 0
	if e := ifsFold(env, args, func(v cell.Value) {
		if v.Kind == cell.Number {
			sum += v.Num
			n++
		}
	}); e.IsError() {
		return e
	}
	if n == 0 {
		return cell.Errorf(cell.ErrDiv0)
	}
	return cell.Num(sum / float64(n))
}

func fnMaxIfs(env *Env, args []operand) cell.Value {
	best, seen := 0.0, false
	if e := ifsFold(env, args, func(v cell.Value) {
		if v.Kind == cell.Number && (!seen || v.Num > best) {
			best, seen = v.Num, true
		}
	}); e.IsError() {
		return e
	}
	return cell.Num(best) // 0 when nothing matches, as in the dialects
}

func fnMinIfs(env *Env, args []operand) cell.Value {
	best, seen := 0.0, false
	if e := ifsFold(env, args, func(v cell.Value) {
		if v.Kind == cell.Number && (!seen || v.Num < best) {
			best, seen = v.Num, true
		}
	}); e.IsError() {
		return e
	}
	return cell.Num(best)
}

// fnSumProduct multiplies the arguments element-wise and sums the products;
// all range arguments must share one shape. Non-numeric cells contribute 0,
// per the shared dialect rule.
func fnSumProduct(env *Env, args []operand) cell.Value {
	// Scalar-only fast path.
	allScalar := true
	for _, a := range args {
		if a.isRange {
			allScalar = false
			break
		}
	}
	if allScalar {
		prod := 1.0
		for _, a := range args {
			v := a.scalar(env)
			if v.IsError() {
				return v
			}
			x, ok := v.AsNumber()
			if !ok {
				return cell.Errorf(cell.ErrValue)
			}
			prod *= x
		}
		return cell.Num(prod)
	}

	var shape cell.Range
	haveShape := false
	for _, a := range args {
		if a.isRange {
			if !haveShape {
				shape = a.rng
				haveShape = true
				continue
			}
			if a.rng.Rows() != shape.Rows() || a.rng.Cols() != shape.Cols() {
				return cell.Errorf(cell.ErrValue)
			}
		}
	}
	var sum float64
	rows, cols := shape.Rows(), shape.Cols()
	for dr := 0; dr < rows; dr++ {
		for dc := 0; dc < cols; dc++ {
			prod := 1.0
			for _, a := range args {
				var v cell.Value
				if a.isRange {
					env.rangeTouch(1)
					v = a.source(env).Value(cell.Addr{Row: a.rng.Start.Row + dr, Col: a.rng.Start.Col + dc})
				} else {
					v = a.scalar(env)
				}
				if v.IsError() {
					return v
				}
				if v.Kind == cell.Number {
					prod *= v.Num
				} else {
					prod = 0
				}
			}
			sum += prod
		}
	}
	return cell.Num(sum)
}
