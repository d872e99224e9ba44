package plan

import (
	"fmt"
	"reflect"
)

// Diff compares two plans for everything a consumer reads — per sheet, in
// order: the statistics summary, every choice with its priced candidates
// and cost split, the predicted recalculation meters, and the site lookup
// tables behind the engine-facing accessors. Column statistics versions
// are ignored (they are the consumer's invalidation keys, and a cold build
// without ColVersion records 0). It returns "" when the plans agree and a
// description of the first difference otherwise; plan-coherence checks use
// it to hold an incrementally rebuilt plan to a cold Build.
func Diff(got, want *Plan) string {
	if len(got.Sheets) != len(want.Sheets) {
		return fmt.Sprintf("%d sheet plans, want %d", len(got.Sheets), len(want.Sheets))
	}
	for i, g := range got.Sheets {
		w := want.Sheets[i]
		if g.Sheet != w.Sheet {
			return fmt.Sprintf("sheet plan %d is %q, want %q", i, g.Sheet, w.Sheet)
		}
		if d := diffSheet(g, w); d != "" {
			return g.Sheet + ": " + d
		}
	}
	return ""
}

func diffSheet(g, w *SheetPlan) string {
	if gs, ws := unversioned(g.Stats), unversioned(w.Stats); !reflect.DeepEqual(gs, ws) {
		return fmt.Sprintf("stats %+v, want %+v", gs, ws)
	}
	if len(g.Choices) != len(w.Choices) {
		return fmt.Sprintf("%d choices, want %d", len(g.Choices), len(w.Choices))
	}
	for i := range g.Choices {
		if !reflect.DeepEqual(g.Choices[i], w.Choices[i]) {
			return fmt.Sprintf("choice %d is %+v, want %+v", i, *g.Choices[i], *w.Choices[i])
		}
	}
	if g.Predicted != w.Predicted {
		return fmt.Sprintf("predicted %v, want %v", g.Predicted, w.Predicted)
	}
	if g.PredictedExt != w.PredictedExt {
		return fmt.Sprintf("predicted external %v, want %v", g.PredictedExt, w.PredictedExt)
	}
	if !reflect.DeepEqual(g.PredictedReads, w.PredictedReads) {
		return fmt.Sprintf("predicted reads %v, want %v", g.PredictedReads, w.PredictedReads)
	}
	gc, wc := *g, *w
	gc.Stats, wc.Stats = SheetSummary{}, SheetSummary{}
	if !reflect.DeepEqual(gc, wc) {
		return "site lookup tables differ"
	}
	return ""
}

// unversioned returns the summary with column statistics versions zeroed.
func unversioned(s SheetSummary) SheetSummary {
	cols := make([]ColumnStats, len(s.Columns))
	for i, cs := range s.Columns {
		cs.Version = 0
		cols[i] = cs
	}
	s.Columns = cols
	return s
}
