package formula

import (
	"cmp"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/cell"
)

// Criterion is a compiled COUNTIF/SUMIF/AVERAGEIF matching condition. The
// dialect shared by all three systems accepts: a bare value (equality), a
// relational operator prefix (">=5", "<>STORM"), and the wildcards '*' and
// '?' in text equality ("ST*M"), with '~' escaping a wildcard.
type Criterion struct {
	op      BinOp
	num     float64
	isNum   bool
	text    string // lowercase pattern for text comparison
	hasWild bool
}

// CompileCriterion compiles a criterion from its argument value. Compiling
// once per aggregate call (rather than per cell) mirrors what every real
// implementation does; matching itself is charged per cell by the caller.
func CompileCriterion(v cell.Value) Criterion {
	switch v.Kind {
	case cell.Number, cell.Bool:
		return Criterion{op: OpEQ, num: v.Num, isNum: true}
	case cell.Empty:
		return Criterion{op: OpEQ, text: ""}
	case cell.Text:
		return compileTextCriterion(v.Str)
	default:
		return Criterion{op: OpEQ, text: strings.ToLower(v.AsString())}
	}
}

func compileTextCriterion(s string) Criterion {
	op := OpEQ
	rest := s
	switch {
	case strings.HasPrefix(s, ">="):
		op, rest = OpGE, s[2:]
	case strings.HasPrefix(s, "<="):
		op, rest = OpLE, s[2:]
	case strings.HasPrefix(s, "<>"):
		op, rest = OpNE, s[2:]
	case strings.HasPrefix(s, ">"):
		op, rest = OpGT, s[1:]
	case strings.HasPrefix(s, "<"):
		op, rest = OpLT, s[1:]
	case strings.HasPrefix(s, "="):
		op, rest = OpEQ, s[1:]
	}
	if f, err := strconv.ParseFloat(rest, 64); err == nil {
		return Criterion{op: op, num: f, isNum: true}
	}
	c := Criterion{op: op, text: strings.ToLower(rest)}
	if op == OpEQ || op == OpNE {
		c.hasWild = strings.ContainsAny(rest, "*?")
	}
	return c
}

// Shape exposes the criterion's structure for index-based evaluation: the
// relational operator, the comparison value, and whether the criterion is a
// plain (wildcard-free) equality an equality index can answer.
func (c Criterion) Shape() (op BinOp, v cell.Value, isEquality bool) {
	if c.isNum {
		v = cell.Num(c.num)
	} else {
		v = cell.Str(c.text)
	}
	return c.op, v, c.op == OpEQ && !c.hasWild
}

// Match reports whether a cell value satisfies the criterion.
func (c Criterion) Match(v cell.Value) bool {
	if c.isNum {
		f, ok := numericForCriterion(v)
		if !ok {
			// Non-numeric cells never match a numeric criterion, except
			// that "<>" matches non-blank cells that are not the number
			// (COUNTIF never counts blanks for "<>", in all three
			// dialects).
			return c.op == OpNE && !v.IsEmpty()
		}
		switch c.op {
		case OpEQ:
			return numEq(f, c.num)
		case OpNE:
			return !numEq(f, c.num)
		case OpLT:
			return f < c.num
		case OpLE:
			return f <= c.num
		case OpGT:
			return f > c.num
		case OpGE:
			return f >= c.num
		}
		return false
	}

	if c.op == OpNE && v.IsEmpty() {
		return false // blanks never count toward "<>text"
	}
	// Text compares as strings.ToLower(text) against the lowercase
	// pattern. ASCII text folds byte by byte as it is read (wildMatch,
	// compareFolded), so it is not copied; other text takes the full Unicode
	// mapping first, after which folding is a no-op.
	s := v.AsString()
	if !isASCII(s) {
		s = strings.ToLower(s)
	}
	if c.hasWild {
		ok := wildMatch(c.text, s)
		if c.op == OpNE {
			return !ok
		}
		return ok
	}
	d := compareFolded(s, c.text)
	switch c.op {
	case OpEQ:
		return d == 0
	case OpNE:
		return d != 0
	case OpLT:
		return d < 0
	case OpLE:
		return d <= 0
	case OpGT:
		return d > 0
	case OpGE:
		return d >= 0
	}
	return false
}

// isASCII reports whether s is pure ASCII, where strings.ToLower only maps
// 'A'-'Z'.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// lowerByte folds an ASCII upper-case letter to lower case.
func lowerByte(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

// compareFolded is strings.Compare(fold(s), t), where fold lowers s's
// ASCII letters.
func compareFolded(s, t string) int {
	for i := 0; i < len(s) && i < len(t); i++ {
		if b := lowerByte(s[i]); b != t[i] {
			if b < t[i] {
				return -1
			}
			return 1
		}
	}
	return cmp.Compare(len(s), len(t))
}

// numericForCriterion extracts a number for numeric criteria: numbers and
// bools qualify; text does NOT coerce (COUNTIF("5", 5) does match in real
// systems, so numeric-looking text qualifies too); empty does not match.
func numericForCriterion(v cell.Value) (float64, bool) {
	switch v.Kind {
	case cell.Number, cell.Bool:
		return v.Num, true
	case cell.Text:
		f, err := strconv.ParseFloat(v.Str, 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// wildMatch matches pattern p (lowercase, may contain '*' and '?', with '~'
// escaping) against s, whose ASCII letters it folds to lower case. Iterative two-pointer algorithm with
// backtracking over the last '*'; O(len(p)*len(s)) worst case, linear in
// practice.
func wildMatch(p, s string) bool {
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		b := lowerByte(s[si])
		switch {
		case pi < len(p) && p[pi] == '~' && pi+1 < len(p):
			if p[pi+1] == b {
				pi += 2
				si++
				continue
			}
			if star < 0 {
				return false
			}
			pi, mark = star+1, mark+1
			si = mark
		case pi < len(p) && (p[pi] == '?' || p[pi] == b):
			pi++
			si++
		case pi < len(p) && p[pi] == '*':
			star, mark = pi, si
			pi++
		case star >= 0:
			pi, mark = star+1, mark+1
			si = mark
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '*' {
		pi++
	}
	return pi == len(p)
}

// numEq reports exact float64 equality. Spreadsheet dialects define
// criteria matching and RANK ties as exact numeric equality, so this is
// correct semantics, not an accident — it is the one audited place inline
// float comparison is allowed, and the floatcmp lint allowlists it by name.
func numEq(a, b float64) bool { return a == b }
