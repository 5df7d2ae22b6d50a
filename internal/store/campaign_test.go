package store

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"energyprop/internal/device"
)

// degradedRecord builds a valid record with both survivors and failures.
func degradedRecord() *CampaignRecord {
	return &CampaignRecord{
		Version:  FormatVersion,
		Device:   "Tesla P100",
		Kind:     "gpu",
		Workload: device.Workload{App: "dgemm", N: 1024, Products: 2}.Normalized(),
		Results: []MeasuredPoint{
			{Config: "bs=8/g=1/r=2", Label: "(BS=8, G=1, R=2)", Seconds: 0.5, DynPowerW: 80, DynEnergyJ: 40, Attempts: 3},
			{Config: "bs=4/g=2/r=1", Label: "(BS=4, G=2, R=1)", Seconds: 0.7, DynPowerW: 60, DynEnergyJ: 42},
		},
		Failed: []FailedPoint{
			{Config: "bs=2/g=1/r=2", Label: "(BS=2, G=1, R=2)", Attempts: 4, Error: "fault: injected transient device failure"},
		},
	}
}

// TestCampaignFailedRoundTrip: a degraded record (results + failed)
// survives save/load byte-exactly, attempts included.
func TestCampaignFailedRoundTrip(t *testing.T) {
	rec := degradedRecord()
	var buf bytes.Buffer
	if err := SaveCampaign(&buf, rec); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	got, err := LoadCampaign(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Failed) != 1 || got.Failed[0].Attempts != 4 || got.Failed[0].Error == "" {
		t.Errorf("failed section did not round-trip: %+v", got.Failed)
	}
	if got.Results[0].Attempts != 3 || got.Results[1].Attempts != 0 {
		t.Errorf("attempts did not round-trip: %+v", got.Results)
	}
	var buf2 bytes.Buffer
	if err := SaveCampaign(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if first != buf2.String() {
		t.Errorf("re-serialization differs:\nfirst:  %s\nsecond: %s", first, buf2.String())
	}
}

// TestCampaignAttemptsOmittedWhenZero: fault-free records carry no
// attempts or failed keys, so pre-chaos records stay byte-identical.
func TestCampaignAttemptsOmittedWhenZero(t *testing.T) {
	rec := degradedRecord()
	rec.Failed = nil
	rec.Results[0].Attempts = 0
	var buf bytes.Buffer
	if err := SaveCampaign(&buf, rec); err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{`"attempts"`, `"failed"`} {
		if strings.Contains(buf.String(), forbidden) {
			t.Errorf("fault-free record contains %s:\n%s", forbidden, buf.String())
		}
	}
}

// TestSaveCampaignRefusesEmptyRecord: a nil record, a zero record and
// a record with neither results nor failures are refused before a
// single byte reaches the destination.
func TestSaveCampaignRefusesEmptyRecord(t *testing.T) {
	empty := degradedRecord()
	empty.Results, empty.Failed = nil, nil
	for _, tc := range []struct {
		name string
		rec  *CampaignRecord
		want string
	}{
		{"nil", nil, "nil record"},
		{"zero", &CampaignRecord{}, "unsupported format version"},
		{"no-points", empty, "no results"},
	} {
		var buf bytes.Buffer
		err := SaveCampaign(&buf, tc.rec)
		if err == nil || !strings.Contains(err.Error(), tc.want) || buf.Len() != 0 {
			t.Errorf("%s: SaveCampaign = %v after %d bytes, want %q and no output", tc.name, err, buf.Len(), tc.want)
		}
	}
}

// failingWriter refuses every write.
type failingWriter struct{}

var errDiskFull = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestSaveCampaignWriterError: a destination that fails to write fails
// SaveCampaign with the destination's own error.
func TestSaveCampaignWriterError(t *testing.T) {
	if err := SaveCampaign(failingWriter{}, degradedRecord()); !errors.Is(err, errDiskFull) {
		t.Errorf("SaveCampaign = %v, want the destination's error", err)
	}
}

// TestCampaignValidateDegraded exercises every validation rule: the
// header identity, the results, and the failed section. Validate is the
// only copy of these rules, so SaveCampaign, LoadCampaign and the
// campaign record sink all reject exactly these shapes.
func TestCampaignValidateDegraded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*CampaignRecord)
		want   string
	}{
		{"all-failed-valid", func(r *CampaignRecord) { r.Results = nil }, ""},
		{"both-empty", func(r *CampaignRecord) { r.Results = nil; r.Failed = nil }, "no results"},
		{"dup-across-lists", func(r *CampaignRecord) { r.Failed[0].Config = r.Results[0].Config }, "duplicate config"},
		{"dup-within-failed", func(r *CampaignRecord) {
			r.Failed = append(r.Failed, r.Failed[0])
		}, "duplicate config"},
		{"failed-empty-config", func(r *CampaignRecord) { r.Failed[0].Config = "" }, "empty config"},
		{"failed-empty-error", func(r *CampaignRecord) { r.Failed[0].Error = "" }, "empty error"},
		{"failed-negative-attempts", func(r *CampaignRecord) { r.Failed[0].Attempts = -1 }, "negative attempts"},
		{"result-negative-attempts", func(r *CampaignRecord) { r.Results[0].Attempts = -1 }, "negative attempts"},
		{"result-empty-config", func(r *CampaignRecord) { r.Results[1].Config = "" }, "empty config"},
		{"dup-within-results", func(r *CampaignRecord) { r.Results[1].Config = r.Results[0].Config }, "duplicate config"},
		{"result-zero-seconds", func(r *CampaignRecord) { r.Results[0].Seconds = 0 }, "non-positive measurements"},
		{"result-negative-energy", func(r *CampaignRecord) { r.Results[0].DynEnergyJ = -1 }, "non-positive measurements"},
		{"result-nan-seconds", func(r *CampaignRecord) { r.Results[0].Seconds = math.NaN() }, "non-positive measurements"},
		{"result-inf-seconds", func(r *CampaignRecord) { r.Results[1].Seconds = math.Inf(1) }, "non-positive measurements"},
		{"result-nan-energy", func(r *CampaignRecord) { r.Results[1].DynEnergyJ = math.NaN() }, "non-positive measurements"},
		{"result-inf-energy", func(r *CampaignRecord) { r.Results[0].DynEnergyJ = math.Inf(1) }, "non-positive measurements"},
		{"result-neg-inf-energy", func(r *CampaignRecord) { r.Results[0].DynEnergyJ = math.Inf(-1) }, "non-positive measurements"},
		{"empty-device", func(r *CampaignRecord) { r.Device = "" }, "empty device name"},
		{"empty-kind", func(r *CampaignRecord) { r.Kind = "" }, "empty device kind"},
		{"bad-workload", func(r *CampaignRecord) { r.Workload.N = -1 }, "bad workload"},
		{"wrong-version", func(r *CampaignRecord) { r.Version = FormatVersion + 1 }, "unsupported format version"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := degradedRecord()
			tc.mutate(rec)
			err := rec.Validate()
			if tc.want == "" {
				if err != nil {
					t.Errorf("valid record rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid record accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			// The writer refuses the same record with the same error,
			// before a single byte reaches the destination.
			var buf bytes.Buffer
			if serr := SaveCampaign(&buf, rec); serr == nil || serr.Error() != err.Error() || buf.Len() != 0 {
				t.Errorf("SaveCampaign = %v after %d bytes, want %q and no output", serr, buf.Len(), err)
			}
		})
	}
}
