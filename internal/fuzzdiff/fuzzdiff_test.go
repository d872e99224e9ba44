package fuzzdiff

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/engine"
	"repro/internal/sheet"
	"repro/internal/tracelang"
	"repro/internal/workload"
)

// TestDifferential is the headline property: for every registered workload
// at two sizes, a seeded random op sequence leaves all four engine profiles
// with byte-identical workbook state after every single operation, and the
// baseline engine's static analyses stay sound throughout.
func TestDifferential(t *testing.T) {
	for _, wl := range workload.Names() {
		for _, rows := range []int{12, 36} {
			wl, rows := wl, rows
			t.Run(wl+"/"+itoa(rows), func(t *testing.T) {
				t.Parallel()
				cfg := Config{Workload: wl, Rows: rows, Seed: 0xF00D + uint64(rows), Checks: true}
				ops := Generate(cfg, 30)
				if len(ops) != 30 {
					t.Fatalf("generated %d ops", len(ops))
				}
				if f := Run(cfg, ops); f != nil {
					t.Fatalf("%v\nrepro script:\n%s", f, f.Script())
				}
			})
		}
	}
}

// TestPlannedLockstep runs the planner-driven profile explicitly beside the
// two profiles sharing its lookup semantics, on every workload: states
// must agree after every op and, through the standing invariant, the
// planned engine's plan must equal a cold build after every op.
func TestPlannedLockstep(t *testing.T) {
	for _, wl := range workload.Names() {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Workload: wl, Rows: 24, Seed: 0x9A7, Profiles: []string{"excel", "optimized", "planned"}, Checks: true}
			ops := Generate(cfg, 40)
			if f := Run(cfg, ops); f != nil {
				t.Fatalf("%v\nrepro script:\n%s", f, f.Script())
			}
		})
	}
}

// TestPlannedComparedWithExcel proves planned sits in excel's semantics
// class: a cached value corrupted on the planned engine alone is caught as
// a state divergence.
func TestPlannedComparedWithExcel(t *testing.T) {
	cfg := Config{
		Workload: "ledger",
		Rows:     16,
		Seed:     5,
		Profiles: []string{"excel", "planned"},
		AfterOp: func(profile string, _ *engine.Engine, s *sheet.Sheet, _ tracelang.Op) {
			if profile != "planned" {
				return
			}
			s.EachFormula(func(a cell.Addr, _ sheet.Formula) bool {
				s.SetCachedValue(a, cell.Num(-12345))
				return false
			})
		},
	}
	if f := Run(cfg, Generate(cfg, 10)); f == nil || f.Kind != "state" {
		t.Fatalf("corrupted planned engine: failure %+v, want a state divergence", f)
	}
}

// TestPlanIncoherenceCaught proves the plan-coherence invariant bites: a
// write behind every engine's back (same value everywhere, so states still
// agree) changes the statistics of the column the ledger's lookups probe
// without moving any version key, and the planned engine's stale plan
// must be reported.
func TestPlanIncoherenceCaught(t *testing.T) {
	cfg := Config{
		Workload: "ledger",
		Rows:     16,
		Seed:     5,
		Profiles: []string{"excel", "planned"},
		AfterOp: func(_ string, eng *engine.Engine, _ *sheet.Sheet, _ tracelang.Op) {
			eng.Workbook().Sheet("accounts").SetValue(cell.Addr{Row: 2, Col: 0}, cell.Num(5))
		},
	}
	ops := []tracelang.Op{tracelang.RecalcOp{}}
	if f := Run(cfg, ops); f == nil || f.Kind != "plan" {
		t.Fatalf("stale plan: failure %+v, want a plan incoherence", f)
	}
}

// TestGenerateDeterministic: same (workload, seed, n) must yield the same
// sequence — the property that makes every failure replayable.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Workload: "ledger", Rows: 20, Seed: 7}
	a := Generate(cfg, 40)
	b := Generate(cfg, 40)
	if tracelang.Format(a) != tracelang.Format(b) {
		t.Fatal("generation is not deterministic")
	}
	cfg.Seed = 8
	if tracelang.Format(a) == tracelang.Format(Generate(cfg, 40)) {
		t.Fatal("different seeds produced identical sequences")
	}
	// Every generated sequence must round-trip through the mini-language.
	stmts, err := tracelang.Parse(tracelang.Format(a))
	if err != nil {
		t.Fatalf("generated script does not re-parse: %v", err)
	}
	if len(stmts) != len(a) {
		t.Fatalf("round-trip lost ops: %d != %d", len(stmts), len(a))
	}
}

// TestMutationCaughtAndMinimized injects a bug into the "optimized" engine
// — after every sort it corrupts one cached formula value — and requires
// the harness to (a) catch the divergence and (b) minimize the failing
// sequence to a short replayable trace script.
func TestMutationCaughtAndMinimized(t *testing.T) {
	cfg := Config{
		Workload: "ledger",
		Rows:     24,
		Seed:     0xBADC0DE,
		Profiles: []string{"excel", "optimized"},
		AfterOp: func(profile string, _ *engine.Engine, s *sheet.Sheet, op tracelang.Op) {
			if profile != "optimized" {
				return
			}
			if _, ok := op.(tracelang.SortOp); !ok {
				return
			}
			s.EachFormula(func(a cell.Addr, _ sheet.Formula) bool {
				s.SetCachedValue(a, cell.Num(-12345))
				return false // corrupt just the first formula cell
			})
		},
	}
	ops := Generate(cfg, 40)
	hasSort := false
	for _, op := range ops {
		if _, ok := op.(tracelang.SortOp); ok {
			hasSort = true
			break
		}
	}
	if !hasSort {
		t.Fatal("generated sequence has no sort; pick another seed")
	}

	f := Run(cfg, ops)
	if f == nil {
		t.Fatal("injected cache corruption was not caught")
	}
	if f.Kind != "state" {
		t.Fatalf("divergence kind = %q, want state (%s)", f.Kind, f.Detail)
	}

	min := MinimizeFailure(cfg, ops)
	if min == nil {
		t.Fatal("minimization lost the failure")
	}
	if len(min.Ops) > 10 {
		t.Fatalf("minimized repro has %d ops, want <= 10:\n%s", len(min.Ops), min.Script())
	}
	// The minimal repro must still be a valid, replayable trace script.
	stmts, err := tracelang.Parse(min.Script())
	if err != nil {
		t.Fatalf("minimized script does not parse: %v", err)
	}
	if len(stmts) != len(min.Ops) {
		t.Fatalf("minimized script parses to %d stmts, want %d", len(stmts), len(min.Ops))
	}
	t.Logf("minimized to %d ops: %s", len(min.Ops), min.Script())
}

// TestMinimizeIsOneMinimal checks the shrinker contract on a synthetic
// predicate: the result must fail, and removing any single op must not.
func TestMinimizeIsOneMinimal(t *testing.T) {
	cfg := Config{Workload: "weather", Rows: 10, Seed: 3}
	ops := Generate(cfg, 25)
	// Synthetic failure: "fails" iff the sequence still holds both a sort
	// and a row insert, anywhere.
	fails := func(c []tracelang.Op) bool {
		var sort, ins bool
		for _, op := range c {
			switch op.(type) {
			case tracelang.SortOp:
				sort = true
			case tracelang.RowInsOp:
				ins = true
			}
		}
		return sort && ins
	}
	if !fails(ops) {
		t.Skip("seed produced no sort+rowins pair")
	}
	min := Minimize(ops, fails)
	if !fails(min) {
		t.Fatal("minimized sequence no longer fails")
	}
	if len(min) != 2 {
		t.Fatalf("want exactly {sort, rowins}, got %d ops: %s", len(min), tracelang.Format(min))
	}
	for i := range min {
		cand := append(append([]tracelang.Op(nil), min[:i]...), min[i+1:]...)
		if fails(cand) {
			t.Fatalf("not 1-minimal: op %d removable", i)
		}
	}
}

// TestRunRejectsBadConfig covers the config error paths.
func TestRunRejectsBadConfig(t *testing.T) {
	if f := Run(Config{Workload: "abacus", Rows: 5}, nil); f == nil || f.Kind != "config" {
		t.Fatalf("unknown workload: %+v", f)
	}
	if f := Run(Config{Workload: "weather", Rows: 5, Profiles: []string{"lotus123"}}, nil); f == nil || f.Kind != "config" {
		t.Fatalf("unknown profile: %+v", f)
	}
}

// FuzzDifferential lets `go test -fuzz` drive the harness with arbitrary
// (seed, workload, length) triples. Kept small per execution so the fuzzer
// gets throughput; the nightly CI job gives it a real time budget.
func FuzzDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(12))
	f.Add(uint64(0xF00D), uint8(1), uint8(20))
	f.Add(uint64(42), uint8(2), uint8(16))
	f.Add(uint64(7), uint8(3), uint8(8))
	f.Fuzz(func(t *testing.T, seed uint64, wlIdx, nOps uint8) {
		names := workload.Names()
		cfg := Config{
			Workload: names[int(wlIdx)%len(names)],
			Rows:     8 + int(seed%13),
			Seed:     seed,
			Checks:   true,
		}
		ops := Generate(cfg, 4+int(nOps%24))
		if fail := Run(cfg, ops); fail != nil {
			min := MinimizeFailure(cfg, ops)
			if min != nil {
				fail = min
			}
			t.Fatalf("%v\nrepro script:\n%s", fail, fail.Script())
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
