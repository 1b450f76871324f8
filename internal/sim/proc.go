package sim

import "fmt"

// killedError is the sentinel panic value used to unwind parked
// processes when the environment is closed.
type killedError struct{ name string }

func (k killedError) Error() string { return "sim: process " + k.name + " killed" }

// Proc is a simulated process: a body run on a pooled coroutine whose
// blocking operations are mediated by the simulation kernel. A Proc may
// only call kernel primitives from its own body, and only while it is
// the running process (which is guaranteed if it sticks to kernel
// primitives for all blocking).
type Proc struct {
	env    *Env
	name   string
	co     *coro // bound from the start event until the body returns
	killed bool
	done   *Signal

	// fn is the body. It is cleared when the body starts, so a
	// finished Proc does not keep its closure alive.
	fn func(p *Proc)

	// wakeFn is the one closure allocated per process; every wake-up
	// (wakeSoon, Sleep, the start event) schedules it through the
	// pooled event queue, so process handoffs allocate nothing.
	wakeFn func()
}

// Go creates a process named name running fn and schedules it to start
// at the current virtual time. It returns immediately; the process
// body runs when the scheduler reaches its start event.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	return e.GoAt(e.now, name, fn)
}

// GoAt is Go with an explicit absolute start time.
func (e *Env) GoAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		env:  e,
		name: name,
		fn:   fn,
		done: NewSignal(e),
	}
	p.wakeFn = func() { e.wake(p) }
	e.at(t, p.wakeFn)
	return p
}

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name (for traces and diagnostics).
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Done returns a signal fired when the process body returns; other
// processes can Join on it.
func (p *Proc) Done() *Signal { return p.done }

// Sleep advances the process by d nanoseconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s sleeping negative duration %d", p.name, d))
	}
	if d == 0 {
		// Even a zero-length sleep goes through the event queue so
		// that other ready events at the same timestamp (scheduled
		// earlier) run first.
		p.env.wakeSoon(p)
		p.park()
		return
	}
	p.env.at(p.env.now+d, p.wakeFn)
	p.park()
}

// SleepUntil blocks until absolute virtual time t (no-op if t has
// passed).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.env.now {
		return
	}
	p.Sleep(t - p.env.now)
}

// Join blocks until the given signal fires. It returns immediately if
// the signal has already fired.
func (p *Proc) Join(s *Signal) { s.Wait(p) }

// Cond parks processes until a broadcast, like sync.Cond without the
// lock (the simulation is single-threaded). Waiters must re-check
// their predicate in a loop.
type Cond struct {
	env     *Env
	waiters []*Proc
}

// NewCond returns a condition bound to env.
func NewCond(env *Env) *Cond { return &Cond{env: env} }

// Wait parks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// Broadcast wakes every currently parked waiter.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		c.env.wakeSoon(w)
	}
	c.waiters = nil
}

// Signal is a one-shot broadcast event: processes Wait on it, Fire
// releases all current and future waiters.
type Signal struct {
	env     *Env
	fired   bool
	waiters []*Proc
}

// NewSignal returns an unfired signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire releases all waiters. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		s.env.wakeSoon(w)
	}
	s.waiters = nil
}

// Wait blocks p until the signal fires.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.park()
}
