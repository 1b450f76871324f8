//go:build go1.23

package sim

import "iter"

// coro is a pooled stdlib coroutine that runs process bodies. A
// process binds one at its start event and gives it back when its body
// returns, so short-lived processes (per-packet fabric walkers,
// interrupt handlers) reuse a parked goroutine instead of creating one.
//
// The scheduler resumes a coroutine with next; the process hands
// control back with yield. Both are direct coroutine switches (no
// channel operations, no trip through the Go scheduler).
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // bound process; nil while the coroutine is idle
}

// bind attaches a coroutine to p at its start event, reusing an idle
// one when the pool has any.
func (e *Env) bind(p *Proc) {
	var c *coro
	if n := len(e.idle); n > 0 {
		c = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		c = e.newCoro()
	}
	c.p = p
	p.co = c
}

// newCoro creates a coroutine and registers it in creation order, which
// is the order Close unwinds them in.
func (e *Env) newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			p := c.p
			p.run()
			c.p, p.co = nil, nil
			if p.killed {
				return // a killed coroutine is never pooled
			}
			e.idle = append(e.idle, c)
			if !yield(struct{}{}) {
				return // stopped while idle (Close)
			}
		}
	})
	e.coros = append(e.coros, c)
	return c
}

// run executes the process body. A body that returns fires the Done
// signal. A killed body unwinds through park's killedError panic,
// which run swallows; any other panic propagates out of the coroutine
// and surfaces from the scheduler's RunUntil.
func (p *Proc) run() {
	defer func() {
		if p.killed {
			recover()
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
	p.done.Fire()
}

// park blocks the process until something wakes it. Whatever parks the
// process is responsible for arranging the wake-up (via env.wakeSoon
// or env.wake from an event callback).
func (p *Proc) park() {
	if !p.co.yield(struct{}{}) || p.killed {
		panic(killedError{p.name})
	}
}

// wake transfers control to p immediately (we are inside the
// scheduler's event callback) and returns when p blocks or finishes.
// A process binds its coroutine here, at its start event, so a process
// that never starts costs no goroutine.
func (e *Env) wake(p *Proc) {
	if p.co == nil {
		e.bind(p)
	}
	p.co.next()
}

// Close terminates the simulation: pending events are dropped and
// every coroutine is stopped, in creation order. A parked process is
// marked killed and unwound (its blocking call panics with a private
// sentinel, its deferred functions run, and the coroutine swallows the
// sentinel); an idle coroutine just exits. After Close, scheduling
// calls are counted no-ops (see At) and the environment must not
// otherwise be used. Close must be called from outside any process
// body.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.pq = nil
	e.pool = nil
	for _, c := range e.coros {
		if c.p != nil {
			c.p.killed = true
		}
		c.stop()
	}
	e.coros, e.idle = nil, nil
}
