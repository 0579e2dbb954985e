package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"jade/internal/sim"
)

// psScheduler is the surface the differential oracle drives; Node and
// the reference refNode both satisfy it.
type psScheduler[J comparable] interface {
	Submit(service float64, done, failed func()) J
	Cancel(J)
	SetBackgroundLoad(float64)
	Fail()
	Reboot()
	ActiveJobs() int
	JobsCompleted() uint64
	GrantedShares() float64
	BusyTotal() float64
}

// Limits on one oracle stream, so callbacks that submit more work (and
// zero-demand chains) cannot run forever.
const (
	psMaxJobs = 400
	psMaxOps  = 600
)

// psDriver runs one seeded operation stream against one scheduler and
// logs every completion, abort and operation with the instant it
// happened at (as float bits). Two drivers with the same seed make the
// same random draws for as long as their schedulers behave alike.
type psDriver[J comparable] struct {
	eng  *sim.Engine
	node psScheduler[J]
	rng  *rand.Rand
	jobs []J // by id, in submission order; the zero J for a refused job
	ops  int
	log  []string
}

func newPSDriver[J comparable](seed int64, mk func(*sim.Engine) psScheduler[J]) *psDriver[J] {
	eng := sim.NewEngine(seed)
	d := &psDriver[J]{eng: eng, node: mk(eng), rng: rand.New(rand.NewSource(seed))}
	// Top-level operations on a coarse grid, so several land on one
	// instant and on the instants jobs of grid-sized demands finish at.
	for i := 0; i < 80; i++ {
		eng.At(float64(d.rng.Intn(48))/8, "op", d.op)
	}
	return d
}

func (d *psDriver[J]) record(kind string, id int) {
	d.log = append(d.log, fmt.Sprintf("%s %d @%#x", kind, id, math.Float64bits(d.eng.Now())))
}

// demand draws a service demand: mostly grid values (equal demands
// submitted at one instant tie exactly, and zero-demand jobs finish at
// once), sometimes an arbitrary one.
func (d *psDriver[J]) demand() float64 {
	grid := []float64{0, 0.125, 0.25, 0.5, 1}
	if d.rng.Intn(4) == 0 {
		return d.rng.Float64() * 2
	}
	return grid[d.rng.Intn(len(grid))]
}

func (d *psDriver[J]) submit(service float64) {
	if len(d.jobs) >= psMaxJobs {
		return
	}
	id := len(d.jobs)
	d.record(fmt.Sprintf("submit %x", math.Float64bits(service)), id)
	var zero J
	d.jobs = append(d.jobs, zero)
	d.jobs[id] = d.node.Submit(service, func() {
		d.record("done", id)
		d.react()
	}, func() { d.record("abort", id) })
}

func (d *psDriver[J]) cancelRandom() {
	if len(d.jobs) == 0 {
		return
	}
	id := d.rng.Intn(len(d.jobs))
	d.record("cancel", id)
	d.node.Cancel(d.jobs[id])
}

// react runs in a job's done callback: it may submit more work on the
// spot, cancel a job, or schedule another operation at this very
// instant (drawing an engine sequence number between reschedules).
func (d *psDriver[J]) react() {
	for k := d.rng.Intn(4); k > 0; k-- {
		switch d.rng.Intn(4) {
		case 0:
			d.submit(d.demand())
		case 1:
			d.cancelRandom()
		case 2:
			if d.ops < psMaxOps {
				d.ops++
				d.eng.After(0, "op", d.op)
			}
		}
	}
}

// op is one top-level operation.
func (d *psDriver[J]) op() {
	switch r := d.rng.Intn(100); {
	case r < 35:
		d.submit(d.demand())
	case r < 50: // a burst of equal demands: exact ties
		s := d.demand()
		for k := 1 + d.rng.Intn(4); k > 0; k-- {
			d.submit(s)
		}
	case r < 65:
		d.cancelRandom()
	case r < 80:
		loads := []float64{-0.1, 0, 0.25, 0.5, 0.995, 1.5}
		f := loads[d.rng.Intn(len(loads))]
		d.record(fmt.Sprintf("bg %x", math.Float64bits(f)), -1)
		d.node.SetBackgroundLoad(f)
	case r < 84:
		d.record("fail", -1)
		d.node.Fail()
	case r < 90:
		d.record("reboot", -1)
		d.node.Reboot()
	default:
		if d.ops < psMaxOps {
			d.ops++
			d.eng.After(float64(d.rng.Intn(8))/8, "op", d.op)
		}
	}
}

// state renders the scheduler's observable state, floats as bits.
func (d *psDriver[J]) state() string {
	return fmt.Sprintf("now=%#x active=%d completed=%d granted=%#x busy=%#x",
		math.Float64bits(d.eng.Now()), d.node.ActiveJobs(), d.node.JobsCompleted(),
		math.Float64bits(d.node.GrantedShares()), math.Float64bits(d.node.BusyTotal()))
}

// TestPSSchedulerMatchesReference is the differential oracle for the
// slice-backed scheduler: seeded streams of submissions (with exact ties
// and zero demands), cancellations, background-load changes, failures,
// reboots and work submitted from completion callbacks run against Node
// and the map-based reference, each on its own engine. After every event
// both must have logged the same completions, aborts and operations at
// the same instants, and agree bit for bit on their counters, granted
// shares and busy integral.
func TestPSSchedulerMatchesReference(t *testing.T) {
	configs := []Config{
		{CPUCapacity: 1, MemoryMB: 64},
		{CPUCapacity: 1.7, MemoryMB: 64, ThrashThreshold: 3, ThrashFactor: 0.5},
	}
	events := 0
	for seed := int64(1); seed <= 300; seed++ {
		cfg := configs[seed%2]
		got := newPSDriver(seed, func(e *sim.Engine) psScheduler[*Job] { return NewNode(e, "n", cfg) })
		want := newPSDriver(seed, func(e *sim.Engine) psScheduler[*refJob] { return newRefNode(e, "n", cfg) })
		for step := 0; ; step++ {
			gotOK, wantOK := got.eng.Step(), want.eng.Step()
			if gotOK != wantOK {
				t.Fatalf("seed %d step %d: event queues diverge (node has events: %v)", seed, step, gotOK)
			}
			if !gotOK {
				break
			}
			events++
			if len(got.log) != len(want.log) {
				t.Fatalf("seed %d step %d: %d log entries, reference %d\nnode: %q\nref:  %q",
					seed, step, len(got.log), len(want.log), got.log, want.log)
			}
			for i := range got.log {
				if got.log[i] != want.log[i] {
					t.Fatalf("seed %d step %d: log entry %d is %q, reference %q", seed, step, i, got.log[i], want.log[i])
				}
			}
			if g, w := got.state(), want.state(); g != w {
				t.Fatalf("seed %d step %d: state %s, reference %s", seed, step, g, w)
			}
		}
	}
	if events < 25000 {
		t.Fatalf("oracle streams ran only %d events", events)
	}
}

// TestSubmitCompletionAllocatesOnlyTheJob guards the scheduler's hot
// path: once the engine's event freelist is warm, submitting jobs and
// running them to completion allocates the Job structs and nothing else
// (no per-completion slice, sort closure or method value).
func TestSubmitCompletionAllocatesOnlyTheJob(t *testing.T) {
	eng := sim.NewEngine(1)
	n := newNode(eng, 1)
	done := func() {}
	cycle := func() {
		n.Submit(0.25, done, nil)
		n.Submit(0.5, done, nil)
		n.Submit(0.5, done, nil) // finishes together with the one before
		eng.Run()
	}
	cycle()
	if got := testing.AllocsPerRun(200, cycle); got > 3 {
		t.Fatalf("three jobs submitted and completed allocate %v times, want 3 (one per Job)", got)
	}
}
