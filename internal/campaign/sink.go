package campaign

import (
	"encoding/json"
	"errors"
	"io"

	"energyprop/internal/device"
	"energyprop/internal/parindex"
	"energyprop/internal/store"
)

// Sink consumes a campaign's point outcomes as they are committed —
// the streaming replacement for "materialize []PointOutcome,
// post-process later". The engine guarantees Accept is called in
// configuration order (index 0, 1, 2, ...), exactly once per
// configuration, never concurrently, and that Flush is called exactly
// once, after every Accept, only when the campaign completed — an
// aborted campaign never flushes, so a sink can treat Flush as its
// commit point. An Accept or Flush error aborts the campaign.
//
// Because delivery order equals configuration order on the local pool
// at any worker count and on the fleet, everything downstream of a sink
// (records, Pareto indexes) is byte-identical across them,
// just as materialized results were.
type Sink interface {
	// Accept consumes one configuration's terminal outcome.
	Accept(o PointOutcome) error
	// Flush completes the stream after the final Accept.
	Flush() error
}

// MultiSink fans one outcome stream out to several sinks in order.
// Accept and Flush stop at the first error.
type MultiSink []Sink

// Accept implements Sink.
func (m MultiSink) Accept(o PointOutcome) error {
	for _, s := range m {
		if err := s.Accept(o); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Sink.
func (m MultiSink) Flush() error {
	for _, s := range m {
		if err := s.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// ResultSink materializes the stream back into a Result — the
// compatibility bridge RunConfigs uses so batch callers keep their
// []PointReport API on top of the streaming engine.
type ResultSink struct {
	res Result
}

// NewResultSink builds a materializing sink for a campaign on the
// given device and (normalized) workload.
func NewResultSink(dev device.Device, w device.Workload) *ResultSink {
	return &ResultSink{res: Result{
		Device:   dev.Spec().CatalogName,
		Kind:     dev.Kind(),
		Workload: w.Normalized(),
	}}
}

// Accept implements Sink.
func (s *ResultSink) Accept(o PointOutcome) error {
	if o.Failure != nil {
		s.res.Failed = append(s.res.Failed, *o.Failure)
		return nil
	}
	s.res.Points = append(s.res.Points, o.Report)
	s.res.TotalRuns += o.Report.Runs
	return nil
}

// Flush implements Sink.
func (s *ResultSink) Flush() error { return nil }

// Result returns the materialized campaign result.
func (s *ResultSink) Result() *Result { return &s.res }

// RecordSink collects outcomes into a store.CampaignRecord and writes
// it once, at Flush: the indented layout through store.SaveCampaign, the
// compact wire format through Validate and json.Encoder. A record is
// bounded by the configuration count (a few thousand points at most),
// and an aborted campaign never flushes, so nothing reaches the
// destination unless the whole campaign completed. The field mapping is
// exactly Result.Record's.
type RecordSink struct {
	dst     io.Writer
	compact bool
	rec     store.CampaignRecord
}

// NewRecordSink builds a record sink writing to dst for a campaign on
// dev. The workload is normalized before it enters the record header,
// matching what the engine reports for materialized results. compact
// selects the service wire format over SaveCampaign's indented one.
func NewRecordSink(dst io.Writer, dev device.Device, w device.Workload, compact bool) (*RecordSink, error) {
	if dst == nil {
		return nil, errors.New("campaign: nil record destination")
	}
	return &RecordSink{dst: dst, compact: compact, rec: store.CampaignRecord{
		Version:  store.FormatVersion,
		Device:   dev.Spec().CatalogName,
		Kind:     dev.Kind(),
		Workload: w.Normalized(),
	}}, nil
}

// Accept implements Sink.
func (s *RecordSink) Accept(o PointOutcome) error {
	if o.Failure != nil {
		s.rec.Failed = append(s.rec.Failed, failedPoint(*o.Failure))
		return nil
	}
	s.rec.Results = append(s.rec.Results, measuredPoint(o.Report))
	return nil
}

// Flush implements Sink: it validates and encodes the collected record.
func (s *RecordSink) Flush() error {
	if !s.compact {
		return store.SaveCampaign(s.dst, &s.rec)
	}
	if err := s.rec.Validate(); err != nil {
		return err
	}
	return json.NewEncoder(s.dst).Encode(&s.rec)
}

// Record returns the record collected so far; after a successful Flush
// it is exactly what was written.
func (s *RecordSink) Record() *store.CampaignRecord { return &s.rec }

// IndexSink feeds measured points into an incremental Pareto-front
// index under a fixed (device, workload) key. Failures pass through
// untouched — only measured coordinates enter the front. Because the
// engine delivers points in configuration order, the index's
// duplicate collapse (first encountered wins) matches batch
// pareto.Front over the same campaign.
type IndexSink struct {
	Index *parindex.Index
	Key   parindex.Key
}

// NewIndexSink builds an index sink for a campaign on the device
// registry name and (normalized) workload.
func NewIndexSink(x *parindex.Index, deviceName string, w device.Workload) *IndexSink {
	w = w.Normalized()
	return &IndexSink{Index: x, Key: parindex.Key{
		Device:   deviceName,
		App:      w.App,
		N:        w.N,
		Products: w.Products,
	}}
}

// Accept implements Sink.
func (s *IndexSink) Accept(o PointOutcome) error {
	if o.Failure != nil {
		return nil
	}
	p := o.Report
	s.Index.Insert(s.Key, parindex.Entry{
		Config: p.Config.Key(),
		Label:  p.Config.String(),
		Time:   p.TrueSeconds,
		Energy: p.MeasuredEnergyJ,
	})
	return nil
}

// Flush implements Sink.
func (s *IndexSink) Flush() error { return nil }

// FuncSink adapts a pair of closures to Sink; either may be nil.
type FuncSink struct {
	AcceptFunc func(o PointOutcome) error
	FlushFunc  func() error
}

// Accept implements Sink.
func (s FuncSink) Accept(o PointOutcome) error {
	if s.AcceptFunc == nil {
		return nil
	}
	return s.AcceptFunc(o)
}

// Flush implements Sink.
func (s FuncSink) Flush() error {
	if s.FlushFunc == nil {
		return nil
	}
	return s.FlushFunc()
}

// Discard is a Sink that drops the stream — the warm-repetition path
// of the CLIs, which re-runs campaigns for cache statistics without
// wanting the outcomes twice.
var Discard Sink = FuncSink{}

// errNilSink guards Stream's contract at the API boundary.
var errNilSink = errors.New("campaign: nil sink")
