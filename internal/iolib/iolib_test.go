package iolib

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/formula"
	"repro/internal/quickseed"
	"repro/internal/sheet"
	"repro/internal/workload"
)

func buildSample() *sheet.Workbook {
	s := sheet.New("data", 3, 4)
	s.SetValue(cell.MustParseAddr("A1"), cell.Num(1.5))
	s.SetValue(cell.MustParseAddr("B1"), cell.Str("storm warning"))
	s.SetValue(cell.MustParseAddr("C1"), cell.Boolean(true))
	s.SetValue(cell.MustParseAddr("D1"), cell.Errorf(cell.ErrNA))
	s.SetValue(cell.MustParseAddr("A2"), cell.Str("tab\there"))
	s.SetFormula(cell.MustParseAddr("B2"), formula.MustCompile("=A1*2"))
	s.SetCachedValue(cell.MustParseAddr("B2"), cell.Num(3))
	wb := sheet.NewWorkbook()
	wb.Add(s)
	return wb
}

func TestSVFRoundTrip(t *testing.T) {
	wb := buildSample()
	var buf bytes.Buffer
	if err := WriteWorkbook(&buf, wb); err != nil {
		t.Fatal(err)
	}
	res, err := ReadWorkbook(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workbook.Len() != 1 {
		t.Fatalf("sheets = %d", res.Workbook.Len())
	}
	got := res.Workbook.Sheet("data")
	if got == nil {
		t.Fatal("sheet missing")
	}
	for _, a1 := range []string{"A1", "B1", "C1", "D1", "A2"} {
		a := cell.MustParseAddr(a1)
		if !wb.First().Value(a).Equal(got.Value(a)) {
			t.Errorf("%s: %+v != %+v", a1, wb.First().Value(a), got.Value(a))
		}
	}
	fc, ok := got.Formula(cell.MustParseAddr("B2"))
	if !ok {
		t.Fatal("formula lost")
	}
	if fc.Code.Text != "=(A1*2)" && fc.Code.Text != "=A1*2" {
		t.Errorf("formula text = %q", fc.Code.Text)
	}
	if res.Formulas != 1 || res.Cells != 6 {
		t.Errorf("stats: formulas=%d cells=%d", res.Formulas, res.Cells)
	}
	if res.Bytes != int64(buf.Cap()) && res.Bytes <= 0 {
		t.Errorf("bytes = %d", res.Bytes)
	}
}

func TestSVFFormulaDisplacementPersisted(t *testing.T) {
	// A formula attached away from its origin must persist with shifted
	// references (what a real file format stores per cell).
	s := sheet.New("data", 5, 2)
	code := formula.MustCompile("=A1+1")
	s.AttachFormula(cell.MustParseAddr("B3"), sheet.Formula{
		Code:   code,
		Origin: cell.MustParseAddr("B1"),
	})
	wb := sheet.NewWorkbook()
	wb.Add(s)

	var buf bytes.Buffer
	if err := WriteWorkbook(&buf, wb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "=(A3+1)") {
		t.Errorf("persisted formula should be rewritten to A3: %q", buf.String())
	}
}

func TestSVFWeatherRoundTripProperty(t *testing.T) {
	f := func(rows8 uint8, formulas bool) bool {
		rows := int(rows8%40) + 1
		wb := workload.Weather(workload.Spec{Rows: rows, Formulas: formulas})
		var buf bytes.Buffer
		if err := WriteWorkbook(&buf, wb); err != nil {
			return false
		}
		res, err := ReadWorkbook(&buf)
		if err != nil {
			return false
		}
		in, out := wb.First(), res.Workbook.First()
		if out.Rows() != in.Rows() || out.FormulaCount() != in.FormulaCount() {
			return false
		}
		for r := 0; r < in.Rows(); r++ {
			for c := 0; c < in.Cols(); c++ {
				a := cell.Addr{Row: r, Col: c}
				if _, isF := in.Formula(a); isF {
					continue // formula cells round-trip code, not cache
				}
				if !in.Value(a).Equal(out.Value(a)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickseed.Config(t, 30)); err != nil {
		t.Error(err)
	}
}

func TestSVFErrors(t *testing.T) {
	cases := []string{
		"",
		"NOTSVF\t1\nS\tx\t1\t1\n",
		"SVF1\t1\nX\tbad header\n",
		"SVF1\t1\nS\tx\tnotanum\t2\n",
		"SVF1\t1\nS\tx\t2\t2\n#n1\t#n2\n", // truncated: missing row
		"SVF1\t1\nS\tx\t1\t1\n#zbad\n",    // unknown tag
		"SVF1\t1\nS\tx\t1\t1\n#nxyz\n",    // bad number
		"SVF1\t1\nS\tx\t1\t1\n=SUM(\n",    // bad formula
	}
	for _, in := range cases {
		if _, err := ReadWorkbook(strings.NewReader(in)); err == nil {
			t.Errorf("ReadWorkbook(%q): expected error", in)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wb.svf")
	wb := buildSample()
	if err := SaveWorkbook(path, wb); err != nil {
		t.Fatal(err)
	}
	res, err := LoadWorkbook(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workbook.Len() != 1 {
		t.Error("load")
	}
	if _, err := LoadWorkbook(filepath.Join(dir, "missing.svf")); err == nil {
		t.Error("missing file should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := sheet.New("csv", 2, 3)
	s.SetValue(cell.MustParseAddr("A1"), cell.Num(1))
	s.SetValue(cell.MustParseAddr("B1"), cell.Str("two, with comma"))
	s.SetValue(cell.MustParseAddr("C1"), cell.Str("3x"))
	s.SetValue(cell.MustParseAddr("A2"), cell.Num(-4.5))

	var buf bytes.Buffer
	if err := ExportCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ImportCSV(&buf, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if back.Value(cell.MustParseAddr("A1")).Num != 1 {
		t.Error("A1")
	}
	if back.Value(cell.MustParseAddr("B1")).Str != "two, with comma" {
		t.Error("B1")
	}
	if back.Value(cell.MustParseAddr("C1")).Kind != cell.Text {
		t.Error("C1 should stay text")
	}
	if back.Value(cell.MustParseAddr("A2")).Num != -4.5 {
		t.Error("A2")
	}
}

func TestImportCSVFileMissing(t *testing.T) {
	if _, err := ImportCSVFile("/nonexistent/x.csv", "x"); err == nil {
		t.Error("expected error")
	}
}

// TestSVFWorkloadRoundTrip serializes every registered workload family at
// two sizes, in both Formula-value and Value-only variants, and checks the
// decoded workbook sheet-by-sheet: names, dimensions, formula counts,
// formula text, and every non-formula cell value.
func TestSVFWorkloadRoundTrip(t *testing.T) {
	for _, gen := range workload.Generators() {
		for _, rows := range []int{8, 40} {
			for _, formulas := range []bool{true, false} {
				gen, rows, formulas := gen, rows, formulas
				name := gen.Name
				if formulas {
					name += "/F"
				} else {
					name += "/V"
				}
				t.Run(fmt.Sprintf("%s/rows=%d", name, rows), func(t *testing.T) {
					t.Parallel()
					in := gen.Build(workload.Spec{Rows: rows, Formulas: formulas, Seed: 7})
					var buf bytes.Buffer
					if err := WriteWorkbook(&buf, in); err != nil {
						t.Fatal(err)
					}
					res, err := ReadWorkbook(bytes.NewReader(buf.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					out := res.Workbook
					if out.Len() != in.Len() {
						t.Fatalf("sheets = %d, want %d", out.Len(), in.Len())
					}
					for _, is := range in.Sheets() {
						os := out.Sheet(is.Name)
						if os == nil {
							t.Fatalf("sheet %q missing after round trip", is.Name)
						}
						if os.Rows() != is.Rows() || os.Cols() != is.Cols() {
							t.Fatalf("%s: %dx%d, want %dx%d",
								is.Name, os.Rows(), os.Cols(), is.Rows(), is.Cols())
						}
						if os.FormulaCount() != is.FormulaCount() {
							t.Fatalf("%s: formulas = %d, want %d",
								is.Name, os.FormulaCount(), is.FormulaCount())
						}
						for r := 0; r < is.Rows(); r++ {
							for c := 0; c < is.Cols(); c++ {
								a := cell.Addr{Row: r, Col: c}
								ifc, isF := is.Formula(a)
								ofc, osF := os.Formula(a)
								if isF != osF {
									t.Fatalf("%s!%s: formula presence %v != %v",
										is.Name, a.A1(), osF, isF)
								}
								if isF {
									// Formula cells round-trip code, not the
									// evaluated cache. Fill regions share one
									// Formula (origin row 2) in memory but decode
									// as per-cell copies, so compare the text as
									// displayed AT the host cell on both sides.
									idr, idc := ifc.DeltaAt(a)
									odr, odc := ofc.DeltaAt(a)
									got := ofc.Code.RewriteRelative(odr, odc)
									want := ifc.Code.RewriteRelative(idr, idc)
									if got != want {
										t.Fatalf("%s!%s: formula %q != %q", is.Name, a.A1(), got, want)
									}
									continue
								}
								if !is.Value(a).Equal(os.Value(a)) {
									t.Fatalf("%s!%s: %+v != %+v",
										is.Name, a.A1(), os.Value(a), is.Value(a))
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestSVFWorkloadCorruptedHeader writes each workload then damages the
// file's first line; every corruption must surface as a decode error, not
// a silently wrong workbook.
func TestSVFWorkloadCorruptedHeader(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func(string) string
	}{
		{"bad-magic", func(s string) string { return "XVF1" + s[4:] }},
		{"empty", func(string) string { return "" }},
		{"sheet-count-garbage", func(s string) string {
			nl := strings.IndexByte(s, '\n')
			return "SVF1\tnot-a-number" + s[nl:]
		}},
		{"truncated-mid-sheet", func(s string) string {
			// Keep the header and first sheet line only: remaining sheet
			// headers are missing.
			lines := strings.SplitAfterN(s, "\n", 3)
			return lines[0] + lines[1]
		}},
	}
	for _, gen := range workload.Generators() {
		in := gen.Build(workload.Spec{Rows: 6, Formulas: true, Seed: 3})
		var buf bytes.Buffer
		if err := WriteWorkbook(&buf, in); err != nil {
			t.Fatal(err)
		}
		for _, c := range corruptions {
			if _, err := ReadWorkbook(strings.NewReader(c.mut(buf.String()))); err == nil {
				t.Errorf("%s/%s: corrupted SVF decoded without error", gen.Name, c.name)
			}
		}
	}
}
