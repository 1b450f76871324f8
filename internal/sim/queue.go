package sim

import "fmt"

// Queue is a FIFO message queue between processes. With capacity <= 0
// the queue is unbounded and Send never blocks; with a positive
// capacity Send blocks while the queue is full (useful to model
// bounded hardware queues with back-pressure).
type Queue[T any] struct {
	env      *Env
	name     string
	cap      int
	buf      []T
	recvWait []*recvWaiter
	sendWait []sendWaiter[T]

	// Stats.
	sent     uint64
	received uint64
	maxDepth int
}

// recvWaiter tracks a parked receiver. claimed arbitrates between a
// sender's wake-up and a timeout firing at the same timestamp: exactly
// one of them claims the waiter and performs the wake.
type recvWaiter struct {
	p       *Proc
	claimed bool
	expired bool
}

type sendWaiter[T any] struct {
	p *Proc
	v T
}

// NewQueue returns a queue bound to env. capacity <= 0 means
// unbounded.
func NewQueue[T any](env *Env, name string, capacity int) *Queue[T] {
	return &Queue[T]{env: env, name: name, cap: capacity}
}

// Name returns the queue's name.
func (q *Queue[T]) Name() string { return q.name }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.buf) }

// MaxDepth returns the high-water mark of buffered items.
func (q *Queue[T]) MaxDepth() int { return q.maxDepth }

// Counts returns the totals of items sent and received.
func (q *Queue[T]) Counts() (sent, received uint64) { return q.sent, q.received }

func (q *Queue[T]) push(v T) {
	q.buf = append(q.buf, v)
	q.sent++
	if len(q.buf) > q.maxDepth {
		q.maxDepth = len(q.buf)
	}
	for len(q.recvWait) > 0 {
		w := q.recvWait[0]
		q.recvWait = dropFront(q.recvWait)
		if w.claimed {
			continue
		}
		w.claimed = true
		q.env.wakeSoon(w.p)
		break
	}
}

// Send enqueues v, blocking p while the queue is full.
func (q *Queue[T]) Send(p *Proc, v T) {
	if q.cap > 0 && len(q.buf) >= q.cap {
		q.sendWait = append(q.sendWait, sendWaiter[T]{p: p, v: v})
		p.park()
		return // our value was pushed by the receiver that freed space
	}
	q.push(v)
}

// TrySend enqueues v if there is room, reporting success. It never
// blocks; on a full bounded queue it returns false (models hardware
// queues that drop or NACK).
func (q *Queue[T]) TrySend(v T) bool {
	if q.cap > 0 && len(q.buf) >= q.cap {
		return false
	}
	q.push(v)
	return true
}

// Post enqueues from non-process context (an event callback). It
// panics if the queue is bounded and full; bounded queues fed from
// callbacks should use TrySend and model the drop.
func (q *Queue[T]) Post(v T) {
	if q.cap > 0 && len(q.buf) >= q.cap {
		panic(fmt.Sprintf("sim: Post to full bounded queue %q", q.name))
	}
	q.push(v)
}

// Recv dequeues the oldest item, blocking p while the queue is empty.
func (q *Queue[T]) Recv(p *Proc) T {
	for len(q.buf) == 0 {
		w := &recvWaiter{p: p}
		q.recvWait = append(q.recvWait, w)
		p.park()
	}
	return q.pop()
}

// TryRecv dequeues if an item is available.
func (q *Queue[T]) TryRecv() (T, bool) {
	var zero T
	if len(q.buf) == 0 {
		return zero, false
	}
	return q.pop(), true
}

// RecvTimeout dequeues, giving up after d nanoseconds of virtual time.
// ok reports whether a value was received.
func (q *Queue[T]) RecvTimeout(p *Proc, d Time) (v T, ok bool) {
	deadline := q.env.now + d
	for len(q.buf) == 0 {
		if q.env.now >= deadline {
			var zero T
			return zero, false
		}
		w := &recvWaiter{p: p}
		q.recvWait = append(q.recvWait, w)
		timer := q.env.At(deadline, func() {
			if w.claimed {
				return // a sender won the race; let its wake proceed
			}
			w.claimed = true
			w.expired = true
			q.env.wake(p)
		})
		p.park()
		if w.expired {
			var zero T
			return zero, false
		}
		timer.Cancel()
		// A sender claimed us; the item is normally in buf, but another
		// receiver may have drained it at the same timestamp — loop.
	}
	return q.pop(), true
}

func (q *Queue[T]) pop() T {
	v := q.buf[0]
	q.buf = dropFront(q.buf)
	q.received++
	if len(q.sendWait) > 0 {
		w := q.sendWait[0]
		q.sendWait = dropFront(q.sendWait)
		q.push(w.v)
		q.env.wakeSoon(w.p)
	}
	return v
}

// dropFront removes s[0], clearing its slot. A slice that drains to
// empty is truncated in place so the next append reuses its backing
// array; advancing past the last element would leave a zero-capacity
// slice and make every later append reallocate.
func dropFront[T any](s []T) []T {
	var zero T
	s[0] = zero
	if len(s) == 1 {
		return s[:0]
	}
	return s[1:]
}
