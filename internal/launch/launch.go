// Package launch turns one measured-campaign request into the device
// stack that runs it. gpusweep, epstudy -device, and the service's
// /measure and /sweep endpoints each parse their flags or JSON into a
// Request, check it with Validate, and call Open; none of them layers
// devices itself.
//
// The layering order lives here and only here:
//
//	registry device → analytic profile (model-true sweeps only)
//	  → policy wrapper → fault injector
//
// Under the local executor the reference device carries the fault
// injector. Under the fleet executor the reference device stays clean
// and every node opens its own copy of the stack, its injector driven by
// fleet.NodePlan's per-node derivation of the request's plan. The
// injector sits outside the policy wrapper so that its per-configuration
// attempt counters are keyed by the full policy key: a race point and a
// paced point over the same inner configuration draw independent fault
// schedules, whatever order the workers reach them in.
package launch

import (
	"errors"
	"fmt"
	"sync"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/fault"
	"energyprop/internal/fleet"
	"energyprop/internal/policy"
)

// DefaultNodes is the fleet size of a fleet-executor request that does
// not name one.
const DefaultNodes = 4

// Request is one measured campaign as a front end asks for it. The zero
// value of every field but Device and Workload means "off" or "default".
type Request struct {
	// Device is the registry name of the device to measure.
	Device string
	// Workload is the problem; Open normalizes it.
	Workload device.Workload
	// Seed is the campaign's measurement-noise seed.
	Seed int64
	// Workers bounds the fan-out (the local pool, or the fleet's
	// per-round parallelism); 0 means one per CPU.
	Workers int
	// Retries is the per-point budget of extra attempts after a failure.
	Retries int
	// Faults is the device-fault schedule; the zero plan injects nothing.
	Faults fault.Plan
	// Policy, when set, puts the device under an energy policy.
	Policy *policy.Options
	// Analytic selects the constant analytic profile where the backend
	// distinguishes it from the traced one (gpusweep's model-true sweep).
	Analytic bool
	// Executor is "local" (or empty) for the in-process pool, or "fleet".
	Executor string
	// Nodes is the fleet size; 0 means DefaultNodes. Fleet only.
	Nodes int
	// ShardSize is the number of configurations per fleet shard; 0 means
	// one shard per node. Fleet only.
	ShardSize int
	// Chaos is the fleet's node-failure schedule. Fleet only.
	Chaos fleet.Chaos
}

// fleetMode reports whether the request selects the fleet executor.
func (r Request) fleetMode() bool { return r.Executor == "fleet" }

// Validate rejects malformed requests: ranges, schedules, and option
// combinations that no device or workload could make valid. It checks
// the device fault plan whatever the executor. Registry and workload
// errors surface from Open, and resource caps are the caller's.
func Validate(r Request) error {
	switch r.Executor {
	case "", "local":
		if r.Nodes != 0 || r.ShardSize != 0 || r.Chaos != (fleet.Chaos{}) {
			return errors.New(`nodes, shard size, and node faults require the "fleet" executor`)
		}
	case "fleet":
	default:
		return fmt.Errorf(`unknown executor %q (want "local" or "fleet")`, r.Executor)
	}
	switch {
	case r.Workers < 0:
		return fmt.Errorf("workers=%d is negative", r.Workers)
	case r.Retries < 0:
		return fmt.Errorf("retries=%d is negative", r.Retries)
	case r.Nodes < 0:
		return fmt.Errorf("nodes=%d is negative", r.Nodes)
	case r.ShardSize < 0:
		return fmt.Errorf("shard size %d is negative", r.ShardSize)
	}
	if err := r.Faults.Validate(); err != nil {
		return err
	}
	if err := r.Chaos.Validate(); err != nil {
		return err
	}
	if r.Policy != nil {
		return r.Policy.Validate()
	}
	return nil
}

// Stack is an opened campaign request.
type Stack struct {
	// Device is the reference device: the full layered stack under the
	// local executor, the stack without its fault injector under the
	// fleet executor. Its identity (name, kind, spec) is the registry
	// device's, adjusted by the policy wrapper when there is one.
	Device device.Device
	// Workload is the request's normalized workload.
	Workload device.Workload
	// Configs are Device's configurations for Workload, enumerated once.
	Configs []device.Config
	// Spec carries the request's seed, workers, and retry budget, and
	// the fleet coordinator (Spec.Fleet) when the fleet executor was
	// requested. Callers attach their own cache and error policy.
	Spec campaign.Spec

	// injectors are the fault injectors opened so far: the reference
	// device's, or one per fleet node instance (remediation reopens a
	// node, so a fleet may open more than Nodes of them).
	mu        sync.Mutex
	injectors []*fault.Device
}

// workloadError marks an Open failure of configuration enumeration.
type workloadError struct{ error }

func (e workloadError) Unwrap() error      { return e.error }
func (workloadError) Is(target error) bool { return target == ErrWorkload }

// ErrWorkload matches (errors.Is) an Open error raised while enumerating
// the workload's configurations, as opposed to resolving the device.
var ErrWorkload = errors.New("launch: workload has no valid configurations")

// Open assembles a validated request's device stack, enumerates its
// configurations, and builds the fleet coordinator when one is asked
// for. The coordinator opens its nodes lazily, at the start of a run.
func Open(r Request) (*Stack, error) {
	s := &Stack{Workload: r.Workload.Normalized(), Spec: campaign.DefaultSpec(r.Seed)}
	plan := r.Faults
	if r.fleetMode() {
		plan = fault.Plan{}
	}
	var err error
	if s.Device, err = s.open(r, plan); err != nil {
		return nil, err
	}
	if s.Configs, err = s.Device.Configs(s.Workload); err != nil {
		return nil, workloadError{err}
	}
	s.Spec.Workers = r.Workers
	s.Spec.Retry = fault.RetryPolicy{MaxAttempts: r.Retries + 1}
	if !r.fleetMode() {
		return s, nil
	}
	nodes := r.Nodes
	if nodes == 0 {
		nodes = DefaultNodes
	}
	s.Spec.Fleet, err = fleet.New(fleet.Options{
		Nodes:       nodes,
		ShardSize:   r.ShardSize,
		Parallelism: r.Workers,
		Chaos:       r.Chaos,
	}, func(node string) (device.Device, error) {
		return s.open(r, fleet.NodePlan(r.Faults, node))
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// open builds one instance of the request's device stack with the given
// fault plan, recording its injector when the plan injects anything.
func (s *Stack) open(r Request, plan fault.Plan) (device.Device, error) {
	dev, err := device.Open(r.Device)
	if err != nil {
		return nil, err
	}
	if ap, ok := dev.(device.AnalyticProvider); ok && r.Analytic {
		dev = ap.Analytic()
	}
	if r.Policy != nil {
		if dev, err = policy.Wrap(dev, *r.Policy); err != nil {
			return nil, err
		}
	}
	if !plan.Enabled() {
		return dev, nil
	}
	inj, err := fault.Wrap(dev, plan)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.injectors = append(s.injectors, inj)
	s.mu.Unlock()
	return inj, nil
}

// FaultStats sums the counters of every fault injector the stack has
// opened and reports how many there are: one under the local executor,
// one per opened node instance under the fleet, none when the request
// injects no faults.
func (s *Stack) FaultStats() (fault.Stats, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum fault.Stats
	for _, inj := range s.injectors {
		st := inj.Stats()
		sum.Runs += st.Runs
		sum.Transients += st.Transients
		sum.Drops += st.Drops
		sum.Outliers += st.Outliers
		sum.Delays += st.Delays
	}
	return sum, len(s.injectors)
}
