package launch

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/fault"
	"energyprop/internal/fleet"
	"energyprop/internal/policy"
)

// TestValidate covers each rejection rule once, next to a request that
// exercises every knob and passes.
func TestValidate(t *testing.T) {
	good := func() Request {
		return Request{
			Device:    "haswell",
			Workload:  device.Workload{N: 48, Products: 1},
			Workers:   2,
			Retries:   1,
			Faults:    fault.Plan{Seed: 3, Transient: 0.2},
			Policy:    &policy.Options{Slack: 2},
			Executor:  "fleet",
			Nodes:     3,
			ShardSize: 2,
			Chaos:     fleet.Chaos{Seed: 9, Preempt: 0.2},
		}
	}
	if err := Validate(good()); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	for _, tc := range []struct {
		name  string
		patch func(*Request)
		want  string
	}{
		{"unknown executor", func(r *Request) { r.Executor = "cloud" }, "unknown executor"},
		{"nodes without fleet", func(r *Request) { r.Executor, r.ShardSize, r.Chaos = "local", 0, fleet.Chaos{} }, "require"},
		{"shard size without fleet", func(r *Request) { r.Executor, r.Nodes, r.Chaos = "", 0, fleet.Chaos{} }, "require"},
		{"node faults without fleet", func(r *Request) { r.Executor, r.Nodes, r.ShardSize = "local", 0, 0 }, "require"},
		{"negative workers", func(r *Request) { r.Workers = -1 }, "workers"},
		{"negative retries", func(r *Request) { r.Retries = -1 }, "retries"},
		{"negative nodes", func(r *Request) { r.Nodes = -1 }, "nodes"},
		{"negative shard size", func(r *Request) { r.ShardSize = -1 }, "shard size"},
		{"fault plan under fleet", func(r *Request) { r.Faults.Transient = 2 }, "transient"},
		{"node chaos", func(r *Request) { r.Chaos.Preempt = 1.5 }, "preempt"},
		{"policy options", func(r *Request) { r.Policy.Slack = 0.5 }, "slack"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := good()
			tc.patch(&r)
			err := Validate(r)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// TestOpenErrors: a workload the device cannot enumerate is marked
// ErrWorkload; an unknown device is not, and its error lists the
// registry.
func TestOpenErrors(t *testing.T) {
	_, err := Open(Request{Device: "p100", Workload: device.Workload{N: 0, Products: 1}})
	if !errors.Is(err, ErrWorkload) {
		t.Errorf("N=0: err %v does not match ErrWorkload", err)
	}
	_, err = Open(Request{Device: "gtx480", Workload: device.Workload{N: 1024, Products: 1}})
	if err == nil || errors.Is(err, ErrWorkload) || !strings.Contains(err.Error(), "haswell") {
		t.Errorf("unknown device: err %v", err)
	}
}

// stream runs an opened stack's campaign into a record and returns the
// record bytes and the failures.
func stream(t *testing.T, st *Stack) ([]byte, []campaign.PointFailure) {
	t.Helper()
	var body bytes.Buffer
	rs, err := campaign.NewRecordSink(&body, st.Device, st.Workload, true)
	if err != nil {
		t.Fatal(err)
	}
	var failed []campaign.PointFailure
	sink := campaign.MultiSink{rs, campaign.FuncSink{AcceptFunc: func(o campaign.PointOutcome) error {
		if o.Failure != nil {
			failed = append(failed, *o.Failure)
		}
		return nil
	}}}
	spec := st.Spec
	spec.ContinueOnError = true
	if err := campaign.Stream(context.Background(), st.Device, st.Workload, st.Configs, spec, sink); err != nil {
		t.Fatal(err)
	}
	return body.Bytes(), failed
}

// TestFaultInjectorWrapsPolicy pins the layering order on both
// executors: the injector sits outside the policy wrapper, so its
// failures name the full policy key, and every opened injector is
// counted.
func TestFaultInjectorWrapsPolicy(t *testing.T) {
	for _, executor := range []string{"local", "fleet"} {
		t.Run(executor, func(t *testing.T) {
			r := Request{
				Device:   "haswell",
				Workload: device.Workload{N: 48, Products: 1},
				Seed:     5,
				Faults:   fault.Plan{Seed: 3, Transient: 1},
				Policy:   &policy.Options{Strategies: []string{policy.RaceToIdle}},
				Executor: executor,
			}
			st, err := Open(r)
			if err != nil {
				t.Fatal(err)
			}
			_, failed := stream(t, st)
			if len(failed) != len(st.Configs) {
				t.Fatalf("%d of %d points failed under transient=1", len(failed), len(st.Configs))
			}
			if msg := failed[0].Err.Error(); !strings.Contains(msg, "config pol=race/") {
				t.Errorf("injected failure %q does not name the policy key", msg)
			}
			s, n := st.FaultStats()
			wantN := 1
			if executor == "fleet" {
				wantN = DefaultNodes
				if got := st.Spec.Fleet.Options().Nodes; got != DefaultNodes {
					t.Errorf("fleet size %d, want the default %d", got, DefaultNodes)
				}
			}
			if n != wantN || s.Transients != len(st.Configs) {
				t.Errorf("FaultStats = %+v over %d injectors, want %d transients over %d", s, n, len(st.Configs), wantN)
			}
		})
	}
}

// TestPolicyFaultRecordIndependentOfWorkers: a policy campaign under
// device faults and retries produces the same record bytes, failures
// and attempt counts included, at every worker count — the fault
// schedule is a function of point identities only.
func TestPolicyFaultRecordIndependentOfWorkers(t *testing.T) {
	base := Request{
		Device:   "haswell",
		Workload: device.Workload{App: "stencil", N: 2048, Products: 2},
		Seed:     11,
		Retries:  1,
		Faults:   fault.Plan{Seed: 3, Transient: 0.4},
		Policy:   &policy.Options{},
	}
	var want []byte
	for _, workers := range []int{1, 4, 8} {
		r := base
		r.Workers = workers
		st, err := Open(r)
		if err != nil {
			t.Fatal(err)
		}
		got, failed := stream(t, st)
		if len(failed) == 0 {
			t.Fatal("no point failed: the comparison is vacuous")
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("workers=%d record differs from workers=1", workers)
		}
	}
}
