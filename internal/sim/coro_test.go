package sim

import (
	"runtime"
	"testing"
	"time"
)

// goroutinesSettle waits briefly for the goroutine count to drop back
// to want, returning the last count seen.
func goroutinesSettle(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// Close releases every goroutine the environment holds: the parked
// process is unwound, the pooled coroutine of a finished process
// exits, and a process that never started never had one.
func TestCloseReleasesAllGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	q := NewQueue[int](env, "never", 0)
	env.Go("parked", func(p *Proc) { q.Recv(p) })
	env.Go("finished", func(p *Proc) { p.Sleep(10) })
	env.GoAt(Second, "never-started", func(p *Proc) {})
	env.RunUntil(100)
	if len(env.idle) != 1 {
		t.Fatalf("idle coroutines = %d, want 1 (the finished process's)", len(env.idle))
	}
	env.Close()
	if n := goroutinesSettle(before); n != before {
		t.Fatalf("goroutines after Close = %d, want %d", n, before)
	}
}

// A killed process unwinds through its deferred functions.
func TestKilledBodyRunsDefers(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.Go("victim", func(p *Proc) {
		defer func() { order = append(order, "outer") }()
		func() {
			defer func() { order = append(order, "inner") }()
			p.Sleep(Forever - 1)
		}()
		order = append(order, "unreachable")
	})
	env.RunUntil(10)
	env.Close()
	if len(order) != 2 || order[0] != "inner" || order[1] != "outer" {
		t.Fatalf("defers = %v, want [inner outer]", order)
	}
}

// A coroutine freed by one process is reused by the next one to start;
// the second process sees its own name and both Done signals fire.
func TestCoroutineReuse(t *testing.T) {
	env := NewEnv(1)
	var names []string
	var firstCo, secondCo *coro
	var a, b *Proc
	var joined Time = -1
	env.Go("joiner", func(p *Proc) {
		p.Join(a.Done())
		p.Join(b.Done())
		joined = p.Now()
	})
	a = env.Go("a", func(p *Proc) {
		firstCo = p.co
		names = append(names, p.Name())
	})
	b = env.GoAt(5, "b", func(p *Proc) {
		secondCo = p.co
		names = append(names, p.Name())
		p.Sleep(5)
	})
	env.Run()
	if firstCo == nil || firstCo != secondCo {
		t.Fatalf("b did not reuse a's coroutine")
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v, want [a b]", names)
	}
	if !a.Done().Fired() || !b.Done().Fired() || joined != 10 {
		t.Fatalf("done a=%v b=%v joined at %d, want both fired and join at 10",
			a.Done().Fired(), b.Done().Fired(), joined)
	}
	if len(env.coros) != 2 {
		t.Fatalf("coroutines created = %d, want 2 (a/b share one, joiner has its own)", len(env.coros))
	}
	env.Close()
}

// Close unwinds coroutines in creation order, and a killed coroutine
// never goes back to the idle pool: when the second victim unwinds,
// the first one's coroutine has exited without being pooled.
func TestKilledCoroutineNotPooled(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env, "never", 0)
	var order []string
	idleSeen := -1
	env.Go("first", func(p *Proc) {
		defer func() { order = append(order, "first") }()
		q.Recv(p)
	})
	env.Go("second", func(p *Proc) {
		defer func() {
			order = append(order, "second")
			idleSeen = len(env.idle)
		}()
		q.Recv(p)
	})
	env.RunUntil(10)
	env.Close()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("unwind order = %v, want [first second]", order)
	}
	if idleSeen != 0 {
		t.Fatalf("idle pool held %d coroutines during Close, want 0", idleSeen)
	}
}

type boom struct{ at Time }

// A panic in a process body comes out of RunUntil with its own value.
func TestBodyPanicSurfacesFromRunUntil(t *testing.T) {
	env := NewEnv(1)
	env.Go("boom", func(p *Proc) {
		p.Sleep(7)
		panic(boom{p.Now()})
	})
	func() {
		defer func() {
			r := recover()
			if b, ok := r.(boom); !ok || b.at != 7 {
				t.Fatalf("recovered %#v, want boom{at:7}", r)
			}
		}()
		env.RunUntil(100)
		t.Fatal("RunUntil returned normally")
	}()
	env.Close()
}
