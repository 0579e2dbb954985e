// Package cluster simulates the hardware environment of the paper's
// evaluation: a pool of x86 nodes connected by a LAN. Each node has a CPU
// modeled as a processor-sharing server (all active jobs progress at
// capacity/n), a memory budget, an optional thrashing regime that degrades
// efficiency under extreme concurrency (reproducing the database
// "thrashing" the paper observes without Jade), and failure injection used
// by the self-recovery manager experiments.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"jade/internal/metrics"
	"jade/internal/sim"
)

// Errors returned by the package.
var (
	ErrNodeFailed    = errors.New("cluster: node has failed")
	ErrPoolExhausted = errors.New("cluster: no free node in the pool")
	ErrNotAllocated  = errors.New("cluster: node not allocated from this pool")
	ErrOutOfMemory   = errors.New("cluster: node out of memory")
)

// Job is a unit of CPU work executing on a node under processor sharing.
type Job struct {
	node      *Node
	seq       uint64  // submission order, for deterministic FIFO tie-breaks
	remaining float64 // CPU-seconds of service still owed
	done      func()
	failed    func()
	// idx is the job's slot in node.jobs while it runs. A job is live
	// only while node.jobs[idx] is the job itself.
	idx      int
	canceled bool
}

// settleOrder is the order jobs finishing or aborting together are
// settled in: least remaining service first, then submission (FIFO)
// order. seq is unique per node, so the order is total and the settled
// sequence never depends on where jobs sit in node.jobs.
func settleOrder(a, b *Job) int {
	return cmp.Or(cmp.Compare(a.remaining, b.remaining), cmp.Compare(a.seq, b.seq))
}

// Config describes a node's resources.
type Config struct {
	// CPUCapacity is the node's processing rate in CPU-seconds per
	// second (1.0 = one core at reference speed).
	CPUCapacity float64
	// MemoryMB is the node's physical memory.
	MemoryMB float64
	// ThrashThreshold is the number of concurrent jobs beyond which the
	// node enters a thrashing regime. Zero disables thrashing.
	ThrashThreshold int
	// ThrashFactor controls how quickly efficiency degrades past the
	// threshold: effective capacity = CPUCapacity / (1 + f·(n-threshold)).
	ThrashFactor float64
}

// DefaultConfig matches the reference node used across experiments.
func DefaultConfig() Config {
	return Config{CPUCapacity: 1.0, MemoryMB: 1024}
}

// Node is one simulated cluster machine.
type Node struct {
	eng  *sim.Engine
	name string
	cfg  Config

	// jobs holds the active jobs in no meaningful order: every pass over
	// it is order-independent (per-job progress, an exact minimum, and
	// settle orders taken from settleOrder).
	jobs       []*Job
	lastUpdate float64
	completion sim.Handle
	// complete is n.onCompletion, bound once so rescheduling does not
	// allocate a method value; finished is onCompletion's reused scratch.
	complete func()
	finished []*Job
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
	onFail []func(*Node)
	// onReboot callbacks fire when a failed node returns to service
	// (telemetry subscribes here).
	onReboot []func(*Node)

	// bookkeeping
	jobsStarted   uint64
	jobsCompleted uint64
	jobsAborted   uint64
}

// NewNode creates a node attached to the engine.
func NewNode(eng *sim.Engine, name string, cfg Config) *Node {
	if cfg.CPUCapacity <= 0 {
		panic(fmt.Sprintf("cluster: node %q with non-positive CPU capacity", name))
	}
	if cfg.MemoryMB <= 0 {
		panic(fmt.Sprintf("cluster: node %q with non-positive memory", name))
	}
	n := &Node{
		eng:           eng,
		name:          name,
		cfg:           cfg,
		completeLabel: "node:" + name + ":complete",
	}
	n.complete = n.onCompletion
	return n
}

// Name returns the node's hostname.
func (n *Node) Name() string { return n.name }

// Config returns the node's resource configuration.
func (n *Node) Config() Config { return n.cfg }

// Failed reports whether the node has crashed.
func (n *Node) Failed() bool { return n.failed }

// ActiveJobs returns the number of jobs currently sharing the CPU.
func (n *Node) ActiveJobs() int { return len(n.jobs) }

// JobsCompleted returns the number of jobs that ran to completion.
func (n *Node) JobsCompleted() uint64 { return n.jobsCompleted }

// effectiveCapacity returns the current service rate available to
// discrete jobs, accounting for the thrashing regime and the fluid
// background load (which consumes its share of the CPU first).
func (n *Node) effectiveCapacity() float64 {
	c := n.cfg.CPUCapacity
	if n.cfg.ThrashThreshold > 0 && len(n.jobs) > n.cfg.ThrashThreshold {
		over := float64(len(n.jobs) - n.cfg.ThrashThreshold)
		c = c / (1 + n.cfg.ThrashFactor*over)
	}
	return c * (1 - n.bgLoad)
}

// advance applies elapsed processor-sharing progress to all active jobs.
func (n *Node) advance() {
	now := n.eng.Now()
	dt := now - n.lastUpdate
	if dt > 0 && len(n.jobs) > 0 {
		rate := n.effectiveCapacity() / float64(len(n.jobs))
		for _, j := range n.jobs {
			j.remaining -= dt * rate
		}
	}
	n.lastUpdate = now
}

// reschedule computes the next completion instant and (re)schedules it.
// Canceling a zero or already-fired handle is a no-op, so no guard is
// needed around the cancel. It reschedules even when the instant is
// unchanged: each schedule draws the engine's next sequence number, which
// orders the completion among other events at the same instant.
func (n *Node) reschedule() {
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
	for _, j := range n.jobs {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	dt := minRem * float64(len(n.jobs)) / n.effectiveCapacity()
	n.completion = n.eng.After(dt, n.completeLabel, n.complete)
}

func (n *Node) onCompletion() {
	n.completion = sim.Handle{}
	n.advance()
	const eps = 1e-9
	finished := n.finished[:0]
	kept := n.jobs[:0]
	for _, j := range n.jobs {
		if j.remaining <= eps {
			finished = append(finished, j)
		} else {
			j.idx = len(kept)
			kept = append(kept, j)
		}
	}
	clear(n.jobs[len(kept):])
	n.jobs = kept
	// Deterministic completion order: jobs finishing in the same event
	// complete in settleOrder, so equal-remaining jobs complete in
	// submission (FIFO) order whatever their slots. Slot order would let
	// a cancellation's swap reorder a request pipeline (e.g. writes
	// traversing a balancer's proxy node). Usually one job finishes, so
	// an insertion sort does.
	for i := 1; i < len(finished); i++ {
		for k := i; k > 0 && settleOrder(finished[k], finished[k-1]) < 0; k-- {
			finished[k], finished[k-1] = finished[k-1], finished[k]
		}
	}
	n.reschedule()
	for _, j := range finished {
		n.jobsCompleted++
		if j.done != nil {
			j.done()
		}
	}
	clear(finished) // drop the jobs so their callbacks can be collected
	n.finished = finished[:0]
}

// Submit adds a CPU job of the given service demand (CPU-seconds). done
// runs when the job completes; failed (optional) runs if the node crashes
// or the job is canceled before completion. Submitting to a failed node
// invokes failed immediately and returns nil.
func (n *Node) Submit(service float64, done func(), failedFn func()) *Job {
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
	j := &Job{node: n, seq: n.jobsStarted, remaining: service, done: done, failed: failedFn, idx: len(n.jobs)}
	n.jobs = append(n.jobs, j)
	n.jobsStarted++
	n.reschedule()
	return j
}

// Cancel aborts a job before completion; its failed callback runs. A nil
// or already finished job is a no-op.
func (n *Node) Cancel(j *Job) {
	if j == nil || j.canceled || j.idx >= len(n.jobs) || n.jobs[j.idx] != j {
		return
	}
	j.canceled = true
	n.advance()
	last := len(n.jobs) - 1
	n.jobs[j.idx] = n.jobs[last]
	n.jobs[j.idx].idx = j.idx
	n.jobs[last] = nil
	n.jobs = n.jobs[:last]
	n.jobsAborted++
	n.reschedule()
	if j.failed != nil {
		j.failed()
	}
}

// maxBackgroundLoad caps the fluid background utilization so discrete
// jobs always retain a sliver of capacity: a saturated fluid tier slows
// sampled requests to a crawl (mirroring a saturated processor-sharing
// server) instead of wedging them forever.
const maxBackgroundLoad = 0.995

// SetBackgroundLoad sets the fluid-workload background utilization, a
// fraction of CPUCapacity in [0, 0.995]. The fluid network calls this on
// every tick with each tier's queue-theoretic per-node utilization;
// values outside the range are clamped. Setting it on a failed node is a
// no-op (the load is dropped, as the flow reroutes around the failure).
func (n *Node) SetBackgroundLoad(frac float64) {
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

// BackgroundLoad returns the current fluid background utilization.
func (n *Node) BackgroundLoad() float64 { return n.bgLoad }

// GrantedShares returns the total CPU service rate currently granted on
// the node, in CPU-seconds per second: the processor-sharing rate of the
// discrete jobs plus the fluid background flow's share. Under processor
// sharing every active job receives an equal share of the effective
// capacity, so the sum can never exceed the configured CPUCapacity — the
// conservation invariant the testing harness checks (the background
// share is c·bg and discrete jobs split at most c·(1-bg)).
func (n *Node) GrantedShares() float64 {
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
// experiment accounting) must each use their own UtilizationReader.
func (n *Node) Utilization() float64 {
	n.advance() // keep the meter aligned with job state
	return n.util.Read(n.eng.Now())
}

// UtilizationReader computes per-interval mean CPU usage for one observer
// without disturbing other observers of the same node.
type UtilizationReader struct {
	node      *Node
	lastT     float64
	lastTotal float64
}

// NewUtilizationReader starts an observer at the current instant.
func NewUtilizationReader(n *Node) *UtilizationReader {
	return &UtilizationReader{node: n, lastT: n.eng.Now(), lastTotal: n.BusyTotal()}
}

// Node returns the observed node.
func (r *UtilizationReader) Node() *Node { return r.node }

// Read returns the mean busy fraction since the previous Read (or since
// construction).
func (r *UtilizationReader) Read() float64 {
	now := r.node.eng.Now()
	total := r.node.BusyTotal()
	dt := now - r.lastT
	if dt <= 0 {
		return 0
	}
	v := (total - r.lastTotal) / dt
	r.lastT, r.lastTotal = now, total
	return v
}

// BusyTotal returns the integral of CPU busy time since boot.
func (n *Node) BusyTotal() float64 {
	n.advance()
	return n.util.Total(n.eng.Now())
}

// AllocMemory reserves mb of memory, failing if it would exceed capacity.
func (n *Node) AllocMemory(mb float64) error {
	if mb < 0 {
		panic("cluster: negative memory allocation")
	}
	if n.memUsed+mb > n.cfg.MemoryMB {
		return fmt.Errorf("%w: %s needs %.0f MB, %.0f free", ErrOutOfMemory,
			n.name, mb, n.cfg.MemoryMB-n.memUsed)
	}
	n.memUsed += mb
	return nil
}

// FreeMemory releases mb of memory.
func (n *Node) FreeMemory(mb float64) {
	n.memUsed -= mb
	if n.memUsed < 0 {
		n.memUsed = 0
	}
}

// MemoryUsed returns used memory in MB.
func (n *Node) MemoryUsed() float64 { return n.memUsed }

// MemoryFraction returns used memory as a fraction of capacity.
func (n *Node) MemoryFraction() float64 { return n.memUsed / n.cfg.MemoryMB }

// OnFail registers a callback invoked (once) when the node fails.
func (n *Node) OnFail(fn func(*Node)) { n.onFail = append(n.onFail, fn) }

// OnReboot registers a callback invoked when a failed node reboots.
func (n *Node) OnReboot(fn func(*Node)) { n.onReboot = append(n.onReboot, fn) }

// Fail crashes the node: all in-flight jobs abort (their failed callbacks
// run), memory is wiped, and failure subscribers are notified. Failing a
// failed node is a no-op.
func (n *Node) Fail() {
	if n.failed {
		return
	}
	n.advance()
	n.failed = true
	n.eng.Cancel(n.completion)
	n.completion = sim.Handle{}
	aborted := n.jobs
	n.jobs = nil
	slices.SortFunc(aborted, settleOrder)
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
func (n *Node) Reboot() {
	if !n.failed {
		return
	}
	n.failed = false
	n.lastUpdate = n.eng.Now()
	for _, fn := range n.onReboot {
		fn(n)
	}
}
