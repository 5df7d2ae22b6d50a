package lint

import "testing"

// rootPkg is the module's root package: deadexport reports only when it
// is loaded, so the fixtures below load it alongside themselves.
var rootPkg = []string{"energyprop"}

func TestDeadExportReportsUnreferencedDecls(t *testing.T) {
	src := `package deadfix

func Used() int { return 1 }

func Dead() int { return Used() + limit }

const limit = 3

var Table = []int{1}

func init() {}
`
	checkFixturePkgs(t, []Rule{DeadExport{}}, "energyprop/internal/deadfix", src, rootPkg, []want{
		{line: 5, rule: "deadexport", substr: "deadfix.Dead is referenced by no non-test code"},
		{line: 9, rule: "deadexport", substr: "deadfix.Table"},
	})
}

func TestDeadExportSelfReferenceDoesNotCount(t *testing.T) {
	src := `package deadfix

func splitLE(n int) int {
	if n == 0 {
		return 0
	}
	return splitLE(n - 1)
}
`
	checkFixturePkgs(t, []Rule{DeadExport{}}, "energyprop/internal/deadfix", src, rootPkg, []want{
		{line: 3, rule: "deadexport", substr: "deadfix.splitLE"},
	})
}

func TestDeadExportMethodReceiverDoesNotCount(t *testing.T) {
	src := `package deadfix

type Fit struct{ Slope float64 }

func (f *Fit) Predict(x float64) float64 { return f.Slope * x }
`
	checkFixturePkgs(t, []Rule{DeadExport{}}, "energyprop/internal/deadfix", src, rootPkg, []want{
		{line: 3, rule: "deadexport", substr: "deadfix.Fit"},
	})
}

// TestDeadExportCrossPackageUse loads the fixture as the module root and
// the real internal/cli beside it: every cli declaration is reached from
// the fixture (Writer through NewWriter's signature), so none is dead.
// DroppedErr runs too because cli carries a droppederr suppression.
func TestDeadExportCrossPackageUse(t *testing.T) {
	src := `package energyprop

import (
	"os"

	"energyprop/internal/cli"
)

func Report() {
	cli.NewWriter(os.Stdout).Println("ok")
	cli.Errorf(os.Stderr, "done\n")
}
`
	checkFixturePkgs(t, []Rule{DeadExport{}, DroppedErr{}}, "energyprop", src, []string{"energyprop/internal/cli"}, nil)
}

func TestDeadExportGenericInstantiationCounts(t *testing.T) {
	src := `package deadfix

func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

var _ = Max(1, 2)
`
	checkFixturePkgs(t, []Rule{DeadExport{}}, "energyprop/internal/deadfix", src, rootPkg, nil)
}

func TestDeadExportIgnoreDirective(t *testing.T) {
	src := `package deadfix

//lint:ignore deadexport reference kernel kept for its benchmark
func Kernel() {}
`
	sum := checkFixturePkgs(t, []Rule{DeadExport{}}, "energyprop/internal/deadfix", src, rootPkg, nil)
	if sum.Suppressed != 1 {
		t.Errorf("suppressed %d findings, want 1", sum.Suppressed)
	}
}

// TestDeadExportNeedsModuleRoot pins the subtree behaviour: without the
// root package the callers are out of view, so nothing is reported.
func TestDeadExportNeedsModuleRoot(t *testing.T) {
	src := `package deadfix

func Dead() {}
`
	checkFixture(t, []Rule{DeadExport{}}, "energyprop/internal/deadfix", src, nil)
}
