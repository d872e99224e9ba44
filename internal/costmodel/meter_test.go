package costmodel

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/quickseed"
)

func TestMeterAddCountReset(t *testing.T) {
	var m Meter
	m.Add(CellTouch, 5)
	m.Add(CellTouch, 3)
	m.Add(Compare, 1)
	if m.Count(CellTouch) != 8 || m.Count(Compare) != 1 {
		t.Errorf("counts: %d %d", m.Count(CellTouch), m.Count(Compare))
	}
	if m.Total() != 9 {
		t.Errorf("Total = %d", m.Total())
	}
	m.Reset()
	if m.Total() != 0 {
		t.Error("Reset")
	}
}

func TestMeterSubSnapshot(t *testing.T) {
	var m Meter
	m.Add(CellWrite, 10)
	snap := m.Snapshot()
	m.Add(CellWrite, 7)
	m.Add(StyleWrite, 2)
	d := m.Sub(snap)
	if d.Count(CellWrite) != 7 || d.Count(StyleWrite) != 2 {
		t.Errorf("delta: %+v", d)
	}
	if snap.Count(CellWrite) != 10 {
		t.Error("snapshot mutated")
	}
}

func TestCoefficientsTime(t *testing.T) {
	var c Coefficients
	c[CellTouch] = 100 // 100ns per touch
	c[Compare] = 50
	var m Meter
	m.Add(CellTouch, 1000)
	m.Add(Compare, 10)
	want := time.Duration(1000*100 + 10*50)
	if got := c.Time(&m); got != want {
		t.Errorf("Time = %v, want %v", got, want)
	}
}

func TestCoefficientsTimeLinearityProperty(t *testing.T) {
	f := func(n1, n2 uint16) bool {
		var c Coefficients
		c[FormulaEval] = 10
		var a, b, both Meter
		a.Add(FormulaEval, int64(n1))
		b.Add(FormulaEval, int64(n2))
		both.Add(FormulaEval, int64(n1)+int64(n2))
		return c.Time(&a)+c.Time(&b) == c.Time(&both)
	}
	if err := quick.Check(f, quickseed.Config(t, 0)); err != nil {
		t.Error(err)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < NumMetrics; i++ {
		name := Metric(i).String()
		if name == "" || seen[name] {
			t.Errorf("metric %d name %q duplicated or empty", i, name)
		}
		seen[name] = true
	}
	if Metric(999).String() == "" {
		t.Error("out-of-range metric should still format")
	}
}
