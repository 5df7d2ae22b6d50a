package main

import (
	"math"
	"strings"
	"testing"
)

// FuzzReadPoints checks the CSV parser never panics and that accepted
// inputs yield structurally valid points.
func FuzzReadPoints(f *testing.F) {
	f.Add("label,time,energy\nA,1.0,10\n")
	f.Add("\"(BS=32, G=1, R=8)\",7.47,1330\n")
	f.Add("# comment\n\nA,1,2\n")
	f.Add("A,1\n")
	f.Add("\"unterminated,1,2\n")
	f.Add(",,\n")
	f.Add("a,b,c\nd,e,f\n")
	f.Fuzz(func(t *testing.T, input string) {
		pts, err := readPoints(strings.NewReader(input))
		if err != nil {
			return // rejections are fine; panics are not
		}
		for _, p := range pts {
			if !(p.Time > 0 && p.Energy > 0) || math.IsInf(p.Time, 0) || math.IsInf(p.Energy, 0) {
				t.Fatalf("accepted a non-positive or non-finite point %+v", p)
			}
		}
	})
}

// FuzzSplitLabel checks the quote-aware first-field splitter.
func FuzzSplitLabel(f *testing.F) {
	f.Add("plain,1,2")
	f.Add("\"a,b\",3,4")
	f.Add("\"\",1,2")
	f.Add("nocomma")
	f.Fuzz(func(t *testing.T, line string) {
		label, rest, err := splitLabel(line)
		if err != nil {
			return
		}
		if len(label)+len(rest) > len(line) {
			t.Fatalf("splitLabel grew the input: %q -> %q + %q", line, label, rest)
		}
	})
}
