// Package sim implements a deterministic discrete-event simulation
// kernel with a process model, in the style of SimPy or OMNeT++.
//
// The kernel maintains a virtual clock in integer nanoseconds and an
// event queue ordered by (time, insertion sequence). Simulated
// activities are either plain callbacks (Env.At / Env.After) or
// processes: goroutines created with Env.Go that may block on the
// kernel's synchronization primitives (Proc.Sleep, Queue.Recv,
// Resource.Acquire, Signal.Wait, ...).
//
// Exactly one process goroutine runs at a time; the scheduler and the
// running process hand control back and forth over channels, so there
// is never concurrent access to simulation state and every run with
// the same inputs produces the identical event order. Wall-clock time
// plays no role: a simulated microsecond costs whatever the host needs
// to execute the model code.
//
// The hot path is allocation-free in steady state: executed events are
// recycled through a per-environment pool (Timers detect recycled
// events through a generation counter), the event heap is a hand-rolled
// binary heap over concrete *event values (no container/heap interface
// boxing), and arg-carrying events (Env.AtArg) let callers dispatch
// through a long-lived function value instead of a fresh closure per
// event.
package sim

import "fmt"

// Time is a point on the virtual clock, in nanoseconds.
type Time = int64

// Handy duration units, all in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Forever is a time later than any schedulable event; waiting until
// Forever blocks a process for the rest of the simulation.
const Forever Time = 1<<63 - 1

// event is a scheduled callback. Events are pooled: after execution
// (or a cancelled pop) the object returns to the environment's
// freelist with its generation bumped, so outstanding Timers can tell
// a live lease from a recycled one without keeping the event alive.
type event struct {
	t   Time
	seq uint64
	gen uint64 // bumped on every recycle; Timers snapshot it

	// Exactly one of fn / argFn is set. argFn events carry two uint64
	// words and dispatch through a long-lived function value, so the
	// scheduling site allocates nothing (no per-event closure).
	fn    func()
	argFn func(a, b uint64)
	a, b  uint64

	index int  // heap index, -1 once popped
	dead  bool // cancelled
}

// Env is a simulation environment: one virtual clock, one event queue,
// and the set of processes and primitives attached to it. An Env is
// not safe for concurrent use from goroutines outside its control; all
// interaction must happen from process goroutines it scheduled or from
// the goroutine that calls Run.
type Env struct {
	now     Time
	seq     uint64
	pq      []*event      // binary heap ordered by (t, seq)
	yield   chan struct{} // running proc -> scheduler
	parked  map[*Proc]struct{}
	current *Proc
	closed  bool
	steps   uint64
	rng     *Rand

	// Event pool. poolHits counts allocations served from the
	// freelist, poolMisses counts fresh heap allocations; their ratio
	// is the pool hit rate (see PoolStats).
	pool       []*event
	poolHits   uint64
	poolMisses uint64

	// closedSchedules counts At/After/AtArg calls that arrived after
	// Close: each is a documented no-op (see At).
	closedSchedules uint64
}

// NewEnv returns an environment with the clock at zero and the given
// RNG seed (the seed fully determines any randomized model behaviour).
func NewEnv(seed uint64) *Env {
	return &Env{
		yield:  make(chan struct{}),
		parked: make(map[*Proc]struct{}),
		rng:    NewRand(seed),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *Rand { return e.rng }

// Steps reports how many events have been executed so far.
func (e *Env) Steps() uint64 { return e.steps }

// PoolStats reports how many event allocations were served from the
// recycle pool (hits) versus fresh allocations (misses). In steady
// state hits dominate: the pool high-water mark is the peak number of
// simultaneously pending events.
func (e *Env) PoolStats() (hits, misses uint64) { return e.poolHits, e.poolMisses }

// ClosedSchedules reports how many schedule calls (At / After / AtArg)
// were dropped because the environment was already closed.
func (e *Env) ClosedSchedules() uint64 { return e.closedSchedules }

// ---------------------------------------------------------- event heap

// evLess orders events by (time, seq). seq is unique, so the order is
// a strict total order and any correct heap pops the same sequence.
func evLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// heapPush inserts ev, maintaining the heap invariant. Hand-rolled
// (rather than container/heap) so no event is ever boxed into an
// interface value on the hot path.
func (e *Env) heapPush(ev *event) {
	e.pq = append(e.pq, ev)
	i := len(e.pq) - 1
	ev.index = i
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(e.pq[i], e.pq[parent]) {
			break
		}
		e.pq[i], e.pq[parent] = e.pq[parent], e.pq[i]
		e.pq[i].index = i
		e.pq[parent].index = parent
		i = parent
	}
}

// heapPop removes and returns the earliest event.
func (e *Env) heapPop() *event {
	top := e.pq[0]
	n := len(e.pq) - 1
	e.pq[0] = e.pq[n]
	e.pq[0].index = 0
	e.pq[n] = nil
	e.pq = e.pq[:n]
	top.index = -1
	// Sift the moved element down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && evLess(e.pq[l], e.pq[smallest]) {
			smallest = l
		}
		if r < n && evLess(e.pq[r], e.pq[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		e.pq[i], e.pq[smallest] = e.pq[smallest], e.pq[i]
		e.pq[i].index = i
		e.pq[smallest].index = smallest
		i = smallest
	}
	return top
}

// ---------------------------------------------------------- event pool

// alloc returns a clean event, recycling from the pool when possible.
func (e *Env) alloc() *event {
	if n := len(e.pool); n > 0 {
		ev := e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		e.poolHits++
		return ev
	}
	e.poolMisses++
	return &event{index: -1}
}

// recycle returns an executed or cancelled event to the pool. The
// generation bump invalidates every Timer still holding this event.
func (e *Env) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.argFn = nil, nil
	ev.a, ev.b = 0, 0
	ev.dead = false
	ev.index = -1
	e.pool = append(e.pool, ev)
}

// ---------------------------------------------------------- scheduling

// Timer is a handle to a scheduled callback; it can be cancelled
// before it fires. Timers snapshot the event's generation, so holding
// a Timer past its firing is safe even though the underlying event
// object is recycled for later schedules.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel prevents the timer's callback from running. It reports
// whether the callback was still pending (false if it already ran,
// was already cancelled, or the environment was closed when the timer
// was created).
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	t.ev.dead = true
	return true
}

// schedule books a pooled event at absolute time t. Callers have
// already handled the closed and in-the-past checks.
func (e *Env) schedule(t Time) *event {
	e.seq++
	ev := e.alloc()
	ev.t = t
	ev.seq = e.seq
	e.heapPush(ev)
	return ev
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: the model has a bug. Scheduling on a closed environment is
// an explicit no-op — the callback is dropped, the ClosedSchedules
// counter advances, and the returned Timer's Cancel reports false —
// mirroring how After still panics on a negative delay even when the
// environment is closed (a bad duration is a model bug regardless of
// lifecycle; a late schedule during teardown is not).
func (e *Env) At(t Time, fn func()) *Timer {
	if e.closed {
		e.closedSchedules++
		return &Timer{}
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	ev := e.schedule(t)
	ev.fn = fn
	return &Timer{ev: ev, gen: ev.gen}
}

// at is At without the Timer allocation, for internal callers that
// never cancel (process wake-ups).
func (e *Env) at(t Time, fn func()) {
	if e.closed {
		e.closedSchedules++
		return
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.schedule(t).fn = fn
}

// AtArg schedules an arg-carrying event: at time t, fn(a, b) runs.
// Passing a long-lived function value (a field initialized once, not a
// fresh closure) makes the call allocation-free — the two words ride
// in the pooled event itself, so hot paths that schedule one event
// per packet pay no closure allocation. Closed environments drop the
// event exactly like At.
func (e *Env) AtArg(t Time, fn func(a, b uint64), a, b uint64) {
	if e.closed {
		e.closedSchedules++
		return
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	ev := e.schedule(t)
	ev.argFn = fn
	ev.a, ev.b = a, b
}

// After schedules fn to run d nanoseconds from now. A negative delay
// panics even on a closed environment (see At).
func (e *Env) After(d Time, fn func()) *Timer {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.At(e.now+d, fn)
}

// Run executes events until the queue is empty and returns the final
// virtual time.
func (e *Env) Run() Time { return e.RunUntil(Forever) }

// RunUntil executes events with timestamps <= deadline and returns the
// virtual time after the last executed event (or deadline if events
// remain). Events at exactly the deadline do run. A deadline at or
// before the current time never moves the clock backwards: repeated
// calls with a non-advancing deadline execute any events at the
// deadline instant and are otherwise no-ops.
func (e *Env) RunUntil(deadline Time) Time {
	for len(e.pq) > 0 {
		if e.pq[0].t > deadline {
			if deadline > e.now {
				e.now = deadline
			}
			return e.now
		}
		ev := e.heapPop()
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.now = ev.t
		e.steps++
		// Copy the dispatch fields and recycle before running: the
		// callback may schedule new events and immediately reuse this
		// object. Outstanding Timers see the generation bump.
		if ev.argFn != nil {
			fn, a, b := ev.argFn, ev.a, ev.b
			e.recycle(ev)
			fn(a, b)
		} else {
			fn := ev.fn
			e.recycle(ev)
			fn()
		}
	}
	return e.now
}

// Idle reports whether no events are pending.
func (e *Env) Idle() bool { return len(e.pq) == 0 }

// Close terminates the simulation: pending events are dropped and all
// parked process goroutines are unwound (their blocking calls panic
// with a private sentinel recovered by the process trampoline). After
// Close, scheduling calls are counted no-ops (see At) and the
// environment must not otherwise be used.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.pq = nil
	e.pool = nil
	for p := range e.parked {
		delete(e.parked, p)
		p.killed = true
		p.resume <- struct{}{}
		<-e.yield
	}
}

// wake transfers control to p immediately (we are inside the
// scheduler's event callback) and returns when p blocks or finishes.
func (e *Env) wake(p *Proc) {
	delete(e.parked, p)
	prev := e.current
	e.current = p
	p.resume <- struct{}{}
	<-e.yield
	e.current = prev
}

// wakeSoon schedules p to be woken by a fresh event at the current
// time. This is how primitives hand the CPU to an unblocked process:
// through the event queue, preserving deterministic FIFO order. The
// wake closure is created once per process, so the handoff itself
// allocates nothing beyond the pooled event.
func (e *Env) wakeSoon(p *Proc) {
	e.at(e.now, p.wakeFn)
}
