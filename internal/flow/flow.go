// Package flow defines the engine-agnostic module contract.
//
// Every query module other than the eddy — selection modules, access modules,
// and State Modules — implements Module: a reactive state machine that
// consumes one tuple and emits zero or more tuples back to the eddy, each
// tagged with a delay modelling the physical work (hash probe cost, remote
// index latency, scan pacing). Both engines drive the same modules: the
// discrete-event simulator turns emissions into scheduled events; the
// concurrent engine turns them into channel sends after timed waits.
//
// Dataflow moves batch-at-a-time: engines group tuples into Batch values and
// drive modules through the BatchModule contract, amortizing dispatch,
// locking, and synchronization over the batch. A batch of one reproduces
// tuple-at-a-time behavior exactly, and the Lift shim adapts any per-tuple
// Module, so the two granularities are interchangeable.
package flow

import (
	"repro/internal/clock"
	"repro/internal/tuple"
)

// Emission is one output tuple of a module, delivered back to the eddy after
// Delay has elapsed past the module's processing completion.
type Emission struct {
	T *tuple.Tuple
	// Delay is extra latency beyond the module's service time, e.g. the
	// round-trip of an asynchronous remote index lookup.
	Delay clock.Duration
}

// Emit is a convenience constructor for an immediate emission.
func Emit(t *tuple.Tuple) Emission { return Emission{T: t} }

// EmitAfter is a convenience constructor for a delayed emission.
func EmitAfter(t *tuple.Tuple, d clock.Duration) Emission { return Emission{T: t, Delay: d} }

// Module is a query processing module driven by the eddy.
//
// Process consumes the tuple and returns the emissions it generates together
// with the service cost of processing it. A tuple that appears in no emission
// has been removed from the dataflow by the module (e.g. a selection dropped
// it, or a SteM consumed a duplicate build). Process must not retain t after
// returning unless it also stores it internally on purpose (SteMs do).
//
// Parallel reports the module's internal concurrency: 1 for a single-server
// module whose queue exhibits head-of-line blocking (the effect Section 4.2
// demonstrates inside the index join), or >1 for modules that overlap work,
// such as access modules issuing multiple asynchronous probes (Section
// 2.1.3). Parallel 0 means unbounded.
type Module interface {
	// Name identifies the module in traces and experiment output.
	Name() string
	// Process handles one input tuple at virtual time now.
	Process(t *tuple.Tuple, now clock.Time) (out []Emission, cost clock.Duration)
	// Parallel returns the module's internal service concurrency.
	Parallel() int
}

// Batch is an ordered group of tuples moving through the dataflow as one
// unit. Engines that amortize per-tuple dispatch (the concurrent engine's
// channel sends, a SteM's lock acquisition, a selection's emission
// allocation) exchange batches instead of single tuples; a batch of one is
// semantically identical to per-tuple dataflow.
//
// Batch shells are recyclable: an engine may pool and reuse a Batch once its
// consumer has drained it, so modules must not retain a Batch (or its Tuples
// slice) past ProcessBatch — only the tuples themselves have dataflow
// lifetime.
type Batch struct {
	Tuples []*tuple.Tuple

	// Col, when non-nil, is the batch's columnar payload: the batch carries
	// column vectors instead of row tuples, and Tuples is empty. Only
	// columnar-aware engines and modules set or observe it; everything else
	// sees row batches exclusively.
	Col *ColBatch
}

// NewBatch returns an empty batch with room for capacity tuples.
func NewBatch(capacity int) *Batch {
	return &Batch{Tuples: make([]*tuple.Tuple, 0, capacity)}
}

// BatchOf wraps the given tuples as a batch (sharing the slice).
func BatchOf(ts ...*tuple.Tuple) *Batch { return &Batch{Tuples: ts} }

// Add appends a tuple to the batch.
func (b *Batch) Add(t *tuple.Tuple) { b.Tuples = append(b.Tuples, t) }

// Len returns the number of tuples in the batch: live columnar rows when the
// batch carries a columnar payload, row tuples otherwise.
func (b *Batch) Len() int {
	if b.Col != nil {
		return b.Col.Rows()
	}
	return len(b.Tuples)
}

// Reset empties the batch, retaining capacity for reuse. A columnar payload
// is detached, not recycled — the party that owns it pools it separately.
func (b *Batch) Reset() {
	b.Tuples = b.Tuples[:0]
	b.Col = nil
}

// Contains reports whether t is one of the batch's tuples (by identity).
// Engines use it to tell a module input bouncing back from a freshly
// generated emission.
func (b *Batch) Contains(t *tuple.Tuple) bool {
	for _, x := range b.Tuples {
		if x == t {
			return true
		}
	}
	return false
}

// BatchModule is a module that services whole batches in one call. The
// emissions of all inputs are returned flattened, in input order per tuple,
// and cost is the total sequential service time of the batch — a batch of
// one must behave exactly like Module.Process.
//
// Modules implement BatchModule natively when they can amortize work across
// tuples (a SteM takes its lock once and reuses probe candidate lists, a
// selection module vectorizes predicate evaluation); any other Module is
// lifted by the Lift shim, so third-party per-tuple modules keep working
// unchanged.
type BatchModule interface {
	Module
	// ProcessBatch handles every tuple of b starting at virtual time now.
	ProcessBatch(b *Batch, now clock.Time) (out []Emission, cost clock.Duration)
}

// Lift returns m as a BatchModule: native implementations are returned
// as-is, per-tuple modules are wrapped in a shim that processes batch
// members sequentially.
func Lift(m Module) BatchModule {
	if bm, ok := m.(BatchModule); ok {
		return bm
	}
	return lifted{m}
}

// lifted adapts a per-tuple Module to the BatchModule contract.
type lifted struct {
	Module
}

// ProcessBatch implements BatchModule by sequential per-tuple processing:
// each tuple is served at the virtual time the previous one completed.
func (l lifted) ProcessBatch(b *Batch, now clock.Time) ([]Emission, clock.Duration) {
	var out []Emission
	var total clock.Duration
	for _, t := range b.Tuples {
		ems, cost := l.Module.Process(t, now)
		out = append(out, ems...)
		total += cost
		now = now.Add(cost)
	}
	return out, total
}
