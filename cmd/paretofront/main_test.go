package main

import (
	"reflect"
	"strings"
	"testing"

	"energyprop/internal/pareto"
	"energyprop/internal/parindex"
)

func TestReadPointsBasic(t *testing.T) {
	in := "label,time,energy\nA,1.0,10\nB,2.0,5\n"
	pts, err := readPoints(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("parsed %d points, want 2 (header skipped)", len(pts))
	}
	if pts[0].Label != "A" || pts[0].Time != 1 || pts[0].Energy != 10 {
		t.Errorf("first point %+v", pts[0])
	}
}

func TestReadPointsQuotedLabels(t *testing.T) {
	in := "\"(BS=32, G=1, R=8)\",7.47,1330\n"
	pts, err := readPoints(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("parsed %d points, want 1", len(pts))
	}
	if pts[0].Label != "(BS=32, G=1, R=8)" {
		t.Errorf("label %q", pts[0].Label)
	}
	if pts[0].Time != 7.47 || pts[0].Energy != 1330 {
		t.Errorf("point %+v", pts[0])
	}
}

func TestReadPointsGpusweepLayout(t *testing.T) {
	in := "config,bs,g,r,seconds,dyn_power_w,dyn_energy_j,gflops,fetch_active\n" +
		"\"(BS=32, G=1, R=8)\",32,1,8,7.4696,178.06,1330.0,2300.4,false\n"
	pts, err := readPoints(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("parsed %d points, want 1", len(pts))
	}
	if pts[0].Time != 7.4696 || pts[0].Energy != 1330.0 {
		t.Errorf("gpusweep layout parsed as %+v", pts[0])
	}
}

func TestReadPointsDeviceSweepLayout(t *testing.T) {
	in := "config,seconds,dyn_power_w,dyn_energy_j\n" +
		"bs=32/g=1/r=8,7.4696,178.06,1330.0\n" +
		"contiguous/p=2/t=12,3.2,40.5,129.6\n"
	pts, err := readPoints(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("parsed %d points, want 2", len(pts))
	}
	if pts[0].Label != "bs=32/g=1/r=8" || pts[0].Time != 7.4696 || pts[0].Energy != 1330.0 {
		t.Errorf("device sweep layout parsed as %+v", pts[0])
	}
	if pts[1].Label != "contiguous/p=2/t=12" || pts[1].Energy != 129.6 {
		t.Errorf("CPU row parsed as %+v", pts[1])
	}
}

func TestReadPointsSkipsCommentsAndBlank(t *testing.T) {
	in := "# comment\n\nA,1,2\n"
	pts, err := readPoints(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("parsed %d points, want 1", len(pts))
	}
}

func TestReadPointsErrors(t *testing.T) {
	if _, err := readPoints(strings.NewReader("A,1\n")); err == nil {
		t.Error("too few fields: want error")
	}
	if _, err := readPoints(strings.NewReader("A,1,2\nB,x,2\n")); err == nil {
		t.Error("bad numeric on non-header line: want error")
	}
	if _, err := readPoints(strings.NewReader("\"unterminated,1,2\n")); err == nil {
		t.Error("unterminated quote: want error")
	}
	if _, err := readPoints(strings.NewReader("nocomma\n")); err == nil {
		t.Error("no comma: want error")
	}
}

// TestReadPointsRejectsNonPositiveOrNonFinite: NaN, ±Inf, zero and
// negative coordinates are rejected with the line number, so the
// streamed front and -ranks never see a point they order differently.
func TestReadPointsRejectsNonPositiveOrNonFinite(t *testing.T) {
	for _, row := range []string{"b,NaN,1", "b,1,NaN", "b,Inf,1", "b,1,-Inf", "b,0,1", "b,1,0", "b,-1,1", "b,1,-2"} {
		in := "a,1,5\n" + row + "\nc,2,3\n"
		_, err := readPoints(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%q: err = %v, want a line 2 error", row, err)
		}
	}
}

func TestSplitLabel(t *testing.T) {
	label, rest, err := splitLabel("plain,1,2")
	if err != nil || label != "plain" || rest != "1,2" {
		t.Errorf("plain: %q %q %v", label, rest, err)
	}
	label, rest, err = splitLabel("\"a,b\",3,4")
	if err != nil || label != "a,b" || rest != "3,4" {
		t.Errorf("quoted: %q %q %v", label, rest, err)
	}
}

// TestStreamedFrontMatchesRankZero: the default (no -ranks) path streams
// rows into an incremental parindex.Front; its output point set must
// equal batch pareto.Ranks' rank 0 over the same materialized input —
// including duplicate collapse and dominated-row eviction.
func TestStreamedFrontMatchesRankZero(t *testing.T) {
	in := "config,seconds,dyn_power_w,dyn_energy_j\n" +
		"a,1.0,10,100\n" +
		"b,2.0,10,60\n" +
		"c,2.0,10,60\n" + // duplicate coordinates: first encountered wins
		"d,3.0,10,80\n" + // dominated by b
		"e,4.0,10,30\n" +
		"f,0.5,10,200\n"
	pts, err := readPoints(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := pareto.Ranks(pts)[0]

	var front parindex.Front
	n := 0
	err = forEachPoint(strings.NewReader(in), func(p pareto.Point) error {
		n++
		front.Insert(parindex.Entry{Label: p.Label, Time: p.Time, Energy: p.Energy})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pts) {
		t.Fatalf("streamed %d rows, materialized %d", n, len(pts))
	}
	got := front.Points()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed front %v != batch rank 0 %v", got, want)
	}
}
