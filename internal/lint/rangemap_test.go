package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestBadPackageIsFullyFlagged(t *testing.T) {
	diags, err := CheckDir(filepath.Join("testdata", "src", "bad"))
	if err != nil {
		t.Fatal(err)
	}
	// One finding per function in bad.go.
	const want = 5
	if len(diags) != want {
		t.Fatalf("findings = %d, want %d:\n%s", len(diags), want, join(diags))
	}
	for _, d := range diags {
		if !strings.Contains(d.Pos, "bad.go") {
			t.Errorf("finding outside bad.go: %s", d)
		}
		if !strings.Contains(d.Message, "map iteration order") {
			t.Errorf("unexpected message: %s", d)
		}
	}
}

func TestGoodPackageIsClean(t *testing.T) {
	diags, err := CheckDir(filepath.Join("testdata", "src", "good"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("false positives:\n%s", join(diags))
	}
}

// TestOrderingSensitivePackagesAreClean is the real gate: the packages
// whose output feeds golden files and calc chains must pass the lint.
func TestOrderingSensitivePackagesAreClean(t *testing.T) {
	for _, dir := range []string{"../graph", "../analyze", "../workload", "../absint", "../typecheck"} {
		diags, err := CheckDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if len(diags) != 0 {
			t.Errorf("%s has findings:\n%s", dir, join(diags))
		}
	}
}

func TestCheckDirMissing(t *testing.T) {
	if _, err := CheckDir(filepath.Join("testdata", "nope")); err == nil {
		t.Error("missing directory should error")
	}
}

func join(ds []Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
