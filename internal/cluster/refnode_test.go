package cluster

// This file keeps the map-based processor-sharing scheduler that the
// slice-backed Node replaced, verbatim apart from the renames of Node,
// Job and NewNode to refNode, refJob and newRefNode, and the omission of
// the memory, utilization-reader and accessor methods the scheduler does
// not use. TestPSSchedulerMatchesReference drives both with the same
// operation streams and requires bit-identical behavior.

import (
	"fmt"
	"math"
	"sort"

	"jade/internal/metrics"
	"jade/internal/sim"
)

// refJob is a unit of CPU work executing on a node under processor sharing.
type refJob struct {
	node      *refNode
	seq       uint64  // submission order, for deterministic FIFO tie-breaks
	remaining float64 // CPU-seconds of service still owed
	done      func()
	failed    func()
	canceled  bool
}

// refNode is one simulated cluster machine.
type refNode struct {
	eng  *sim.Engine
	name string
	cfg  Config

	jobs       map[*refJob]struct{}
	lastUpdate float64
	completion sim.Handle
	// completeLabel is the completion event label, precomputed so the
	// cancel-and-reschedule hot path does not concatenate strings.
	completeLabel string

	memUsed float64
	util    metrics.UtilizationMeter
	failed  bool

	// bgLoad is the fluid-workload background utilization in [0,
	// maxBackgroundLoad]: the fraction of the CPU consumed by the
	// aggregate (non-discrete) request flow. It feeds the utilization
	// meter — so CPU sensors see fluid load exactly as they see discrete
	// jobs — and shrinks the capacity available to discrete jobs, so
	// sampled requests experience the mean-field processor-sharing
	// contention of the flow they ride alongside.
	bgLoad float64

	// onFail callbacks fire once when the node fails (failure detectors
	// subscribe here).
	onFail []func(*refNode)
	// onReboot callbacks fire when a failed node returns to service
	// (telemetry subscribes here).
	onReboot []func(*refNode)

	// bookkeeping
	jobsStarted   uint64
	jobsCompleted uint64
	jobsAborted   uint64
}

// newRefNode creates a node attached to the engine.
func newRefNode(eng *sim.Engine, name string, cfg Config) *refNode {
	if cfg.CPUCapacity <= 0 {
		panic(fmt.Sprintf("cluster: node %q with non-positive CPU capacity", name))
	}
	if cfg.MemoryMB <= 0 {
		panic(fmt.Sprintf("cluster: node %q with non-positive memory", name))
	}
	return &refNode{
		eng:           eng,
		name:          name,
		cfg:           cfg,
		jobs:          make(map[*refJob]struct{}),
		completeLabel: "node:" + name + ":complete",
	}
}

// ActiveJobs returns the number of jobs currently sharing the CPU.
func (n *refNode) ActiveJobs() int { return len(n.jobs) }

// JobsCompleted returns the number of jobs that ran to completion.
func (n *refNode) JobsCompleted() uint64 { return n.jobsCompleted }

// effectiveCapacity returns the current service rate available to
// discrete jobs, accounting for the thrashing regime and the fluid
// background load (which consumes its share of the CPU first).
func (n *refNode) effectiveCapacity() float64 {
	c := n.cfg.CPUCapacity
	if n.cfg.ThrashThreshold > 0 && len(n.jobs) > n.cfg.ThrashThreshold {
		over := float64(len(n.jobs) - n.cfg.ThrashThreshold)
		c = c / (1 + n.cfg.ThrashFactor*over)
	}
	return c * (1 - n.bgLoad)
}

// advance applies elapsed processor-sharing progress to all active jobs.
func (n *refNode) advance() {
	now := n.eng.Now()
	dt := now - n.lastUpdate
	if dt > 0 && len(n.jobs) > 0 {
		rate := n.effectiveCapacity() / float64(len(n.jobs))
		for j := range n.jobs {
			j.remaining -= dt * rate
		}
	}
	n.lastUpdate = now
}

// reschedule computes the next completion instant and (re)schedules it.
// Canceling a zero or already-fired handle is a no-op, so no guard is
// needed around the cancel.
func (n *refNode) reschedule() {
	n.eng.Cancel(n.completion)
	n.completion = sim.Handle{}
	if n.failed {
		n.util.SetBusy(n.eng.Now(), 0)
		return
	}
	if len(n.jobs) == 0 {
		n.util.SetBusy(n.eng.Now(), n.bgLoad)
		return
	}
	// Work-conserving: discrete jobs soak up whatever the background
	// flow leaves, so the meter reads fully busy.
	n.util.SetBusy(n.eng.Now(), 1)
	minRem := math.Inf(1)
	for j := range n.jobs {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	dt := minRem * float64(len(n.jobs)) / n.effectiveCapacity()
	n.completion = n.eng.After(dt, n.completeLabel, n.onCompletion)
}

func (n *refNode) onCompletion() {
	n.completion = sim.Handle{}
	n.advance()
	const eps = 1e-9
	var finished []*refJob
	for j := range n.jobs {
		if j.remaining <= eps {
			finished = append(finished, j)
		}
	}
	// Deterministic completion order: jobs finishing in the same event
	// complete in submission (FIFO) order. Without the seq tie-break the
	// order of equal-remaining jobs would be map-iteration order —
	// non-deterministic, and able to reorder a request pipeline (e.g.
	// writes traversing a balancer's proxy node).
	sort.Slice(finished, func(i, k int) bool {
		if finished[i].remaining != finished[k].remaining {
			return finished[i].remaining < finished[k].remaining
		}
		return finished[i].seq < finished[k].seq
	})
	for _, j := range finished {
		delete(n.jobs, j)
	}
	n.reschedule()
	for _, j := range finished {
		n.jobsCompleted++
		if j.done != nil {
			j.done()
		}
	}
}

// Submit adds a CPU job of the given service demand (CPU-seconds). done
// runs when the job completes; failed (optional) runs if the node crashes
// or the job is canceled before completion. Submitting to a failed node
// invokes failed immediately and returns nil.
func (n *refNode) Submit(service float64, done func(), failedFn func()) *refJob {
	if service < 0 {
		panic(fmt.Sprintf("cluster: negative service demand %v on %s", service, n.name))
	}
	if n.failed {
		if failedFn != nil {
			failedFn()
		}
		return nil
	}
	n.advance()
	j := &refJob{node: n, seq: n.jobsStarted, remaining: service, done: done, failed: failedFn}
	n.jobs[j] = struct{}{}
	n.jobsStarted++
	n.reschedule()
	return j
}

// Cancel aborts a job before completion; its failed callback runs. A nil
// or already finished job is a no-op.
func (n *refNode) Cancel(j *refJob) {
	if j == nil || j.canceled {
		return
	}
	if _, ok := n.jobs[j]; !ok {
		return
	}
	j.canceled = true
	n.advance()
	delete(n.jobs, j)
	n.jobsAborted++
	n.reschedule()
	if j.failed != nil {
		j.failed()
	}
}

// SetBackgroundLoad sets the fluid-workload background utilization, a
// fraction of CPUCapacity in [0, 0.995]. The fluid network calls this on
// every tick with each tier's queue-theoretic per-node utilization;
// values outside the range are clamped. Setting it on a failed node is a
// no-op (the load is dropped, as the flow reroutes around the failure).
func (n *refNode) SetBackgroundLoad(frac float64) {
	if n.failed {
		return
	}
	if frac < 0 {
		frac = 0
	} else if frac > maxBackgroundLoad {
		frac = maxBackgroundLoad
	}
	if frac == n.bgLoad {
		return
	}
	n.advance() // settle discrete progress under the old capacity split
	n.bgLoad = frac
	n.reschedule()
}

// GrantedShares returns the total CPU service rate currently granted on
// the node, in CPU-seconds per second: the processor-sharing rate of the
// discrete jobs plus the fluid background flow's share. Under processor
// sharing every active job receives an equal share of the effective
// capacity, so the sum can never exceed the configured CPUCapacity — the
// conservation invariant the testing harness checks (the background
// share is c·bg and discrete jobs split at most c·(1-bg)).
func (n *refNode) GrantedShares() float64 {
	if n.failed {
		return 0
	}
	g := n.bgLoad * n.cfg.CPUCapacity
	if len(n.jobs) > 0 {
		g += n.effectiveCapacity()
	}
	return g
}

// Utilization returns the mean CPU busy fraction since the previous call
// (the quantity the paper's probes sample every second).
//
// The meter has read-reset semantics, so a node must have a single
// Utilization caller; independent observers (multiple sensors, the

// BusyTotal returns the integral of CPU busy time since boot.
func (n *refNode) BusyTotal() float64 {
	n.advance()
	return n.util.Total(n.eng.Now())
}

// OnFail registers a callback invoked (once) when the node fails.
func (n *refNode) OnFail(fn func(*refNode)) { n.onFail = append(n.onFail, fn) }

// OnReboot registers a callback invoked when a failed node reboots.
func (n *refNode) OnReboot(fn func(*refNode)) { n.onReboot = append(n.onReboot, fn) }

// Fail crashes the node: all in-flight jobs abort (their failed callbacks
// run), memory is wiped, and failure subscribers are notified. Failing a
// failed node is a no-op.
func (n *refNode) Fail() {
	if n.failed {
		return
	}
	n.advance()
	n.failed = true
	n.eng.Cancel(n.completion)
	n.completion = sim.Handle{}
	aborted := make([]*refJob, 0, len(n.jobs))
	for j := range n.jobs {
		aborted = append(aborted, j)
	}
	sort.Slice(aborted, func(i, k int) bool {
		if aborted[i].remaining != aborted[k].remaining {
			return aborted[i].remaining < aborted[k].remaining
		}
		return aborted[i].seq < aborted[k].seq
	})
	n.jobs = make(map[*refJob]struct{})
	n.jobsAborted += uint64(len(aborted))
	n.memUsed = 0
	n.bgLoad = 0 // the fluid flow reroutes; next tick reloads survivors
	n.util.SetBusy(n.eng.Now(), 0)
	for _, j := range aborted {
		if j.failed != nil {
			j.failed()
		}
	}
	for _, fn := range n.onFail {
		fn(n)
	}
}

// Reboot returns a failed node to service, empty of jobs and memory.
func (n *refNode) Reboot() {
	if !n.failed {
		return
	}
	n.failed = false
	n.lastUpdate = n.eng.Now()
	for _, fn := range n.onReboot {
		fn(n)
	}
}
