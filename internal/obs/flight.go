package obs

import (
	"fmt"
	"strings"

	"bcl/internal/sim"
)

// Event is one flight-recorder entry: a protocol event worth seeing in
// a post-mortem (retransmit round, peer death, rail failover, send
// failure, CRC drop, ...).
type Event struct {
	T      sim.Time
	Node   int // -1 for cluster-wide events
	Layer  string
	What   string
	Trace  uint64 // causal trace id, 0 if not tied to one message
	Detail string
}

// Recorder is a bounded ring buffer of recent protocol events: cheap
// enough to leave on, dumped on assertion failures and on demand.
type Recorder struct {
	buf   []Event
	next  int
	total uint64
}

// NewRecorder returns a recorder keeping the last capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &Recorder{buf: make([]Event, 0, capacity)}
}

// Record appends an event, evicting the oldest once full. A nil
// recorder is a no-op.
func (r *Recorder) Record(t sim.Time, node int, layer, what string, trace uint64, detail string) {
	if r == nil {
		return
	}
	e := Event{T: t, Node: node, Layer: layer, What: what, Trace: trace, Detail: detail}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % len(r.buf)
	}
	r.total++
}

// Total returns how many events were ever recorded (including evicted
// ones).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.total
}

// Dropped returns how many events were evicted to make room — the gap
// between everything ever recorded and what the ring still retains.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.total - uint64(len(r.buf))
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Text renders the last n retained events (all of them if n <= 0) as a
// flight-recorder dump.
func (r *Recorder) Text(n int) string { return EventsText(r.Events(), n, r.Total()) }

// EventsText renders the last n of evs (all of them if n <= 0) as a
// flight-recorder dump; total is how many events were ever recorded.
func EventsText(evs []Event, n int, total uint64) string {
	if len(evs) == 0 {
		return "(flight recorder empty)\n"
	}
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: last %d of %d events\n", len(evs), total)
	for _, e := range evs {
		where := "-"
		if e.Node >= 0 {
			where = fmt.Sprintf("n%d", e.Node)
		}
		fmt.Fprintf(&b, "%10.3fms %-4s %-16s %-16s", float64(e.T)/float64(sim.Millisecond), where, e.Layer, e.What)
		if e.Trace != 0 {
			fmt.Fprintf(&b, " trace=%x", e.Trace)
		}
		if e.Detail != "" {
			fmt.Fprintf(&b, " %s", e.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
