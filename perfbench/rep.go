package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"bcl/internal/obs"
	"bcl/internal/sim"
)

// repResult is what one rep of a workload measured. Host fields vary
// from rep to rep; every other field is virtual and must repeat
// exactly for a seed.
type repResult struct {
	// Host costs, filled by rep.
	setup, wall time.Duration
	allocBytes  uint64  // heap bytes allocated in the timed phase
	mallocs     uint64  // heap objects allocated in the timed phase
	gcCPU       float64 // GC CPU seconds in the timed phase
	peakRSS     float64 // MB resident at the rep's peak

	// Virtual results, filled by the workload.
	ops       uint64     // operations completed in the measured window
	attempted uint64     // operations attempted in the timed phase
	failed    uint64     // of which failed (see each workload)
	window    sim.Time   // virtual length of the measured window
	payload   uint64     // useful payload bytes moved in the window
	lat       []sim.Time // per-operation virtual latency, timed phase
	sloMiss   uint64     // requests over the service SLO or failed (kv-swarm)
	samples   int        // health sampler ticks in the timed phase
	sloAlerts int        // times the svc-slo-burn health rule fired (kv-swarm)

	// Timed-phase deltas of the simulation kernel and the registry,
	// filled by rep.
	events, poolHits, poolMisses uint64
	counters                     *obs.Snapshot

	digest uint64
}

// rep times one run of a workload's scenario. The workload calls
// beginTimed once set-up and warm-up are done and endTimed when the
// timed phase is over; everything before beginTimed is set-up.
type rep struct {
	tr         *tracing
	t0, t1     time.Time
	setup      time.Duration
	wall       time.Duration
	env        *sim.Env
	o          *obs.Obs
	start, end *phaseMark // nil until the phase is marked
	spanRoot   int32
}

// phaseMark is the state of the process and the simulation at one end
// of the timed phase.
type phaseMark struct {
	mem                 runtime.MemStats
	gcCPU               float64
	steps, hits, misses uint64
	reg                 *obs.Snapshot
}

func (rc *rep) mark() *phaseMark {
	m := &phaseMark{gcCPU: gcCPUSeconds(), steps: rc.env.Steps(), reg: rc.o.Snapshot(rc.env.Now())}
	m.hits, m.misses = rc.env.PoolStats()
	runtime.ReadMemStats(&m.mem)
	return m
}

func newRep(tr *tracing) *rep {
	rc := &rep{tr: tr}
	if tr != nil {
		tr.beginRep()
	}
	rc.t0 = time.Now()
	rc.spanRoot = rc.open("rep", -1, 0, 0)
	return rc
}

// beginTimed ends set-up and starts the timed phase of env, whose
// registry is o.
func (rc *rep) beginTimed(env *sim.Env, o *obs.Obs) {
	rc.setup = time.Since(rc.t0)
	if rc.tr != nil {
		rc.tr.phaseBoundary(false)
	}
	rc.env, rc.o = env, o
	rc.start = rc.mark()
	rc.t1 = time.Now()
}

// endTimed closes the timed phase.
func (rc *rep) endTimed() {
	rc.wall = time.Since(rc.t1)
	rc.end = rc.mark()
	if rc.tr != nil {
		rc.tr.phaseBoundary(true)
	}
}

// finish copies the host measurements into the workload's result.
func (rc *rep) finish(r *repResult) {
	if rc.start == nil || rc.end == nil {
		panic("perfbench: workload did not mark its timed phase")
	}
	rc.close(rc.spanRoot, rc.env.Now())
	a, b := rc.start, rc.end
	r.setup, r.wall = rc.setup, rc.wall
	r.allocBytes = b.mem.TotalAlloc - a.mem.TotalAlloc
	r.mallocs = b.mem.Mallocs - a.mem.Mallocs
	r.gcCPU = b.gcCPU - a.gcCPU
	r.events = b.steps - a.steps
	r.poolHits, r.poolMisses = b.hits-a.hits, b.misses-a.misses
	r.counters = b.reg.Diff(a.reg)
	if rc.tr != nil {
		rc.tr.reps++
	}
}

// open starts a span when the rep is traced; it returns -1 otherwise.
func (rc *rep) open(name string, parent int32, op int64, virt sim.Time) int32 {
	if rc.tr == nil {
		return -1
	}
	if parent < 0 {
		parent = rc.spanRoot
	}
	return rc.tr.spans.open(name, parent, op, virt)
}

// close ends a span opened by open.
func (rc *rep) close(id int32, virt sim.Time) {
	if rc.tr == nil || id < 0 {
		return
	}
	rc.tr.spans.close(id, virt)
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func (r *repResult) opsPerSec() float64 {
	if r.window <= 0 {
		return 0
	}
	return float64(r.ops) / (float64(r.window) / float64(sim.Second))
}

func (r *repResult) goodputMBps() float64 {
	if r.window <= 0 {
		return 0
	}
	return float64(r.payload) / 1e6 / (float64(r.window) / float64(sim.Second))
}

// quantile is the nearest-rank quantile of the latency samples.
func quantile(xs []sim.Time, q float64) sim.Time {
	if len(xs) == 0 {
		return 0
	}
	s := append([]sim.Time(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// virtual is the set of virtual end-to-end results. They repeat
// exactly for a seed, and the digest covers them.
func (r *repResult) virtual() map[string]metric {
	us := func(t sim.Time) float64 { return float64(t) / 1e3 }
	m := map[string]metric{
		"lat_p50_us":    {us(quantile(r.lat, 0.50)), "us"},
		"lat_p99_us":    {us(quantile(r.lat, 0.99)), "us"},
		"lat_samples":   {float64(len(r.lat)), "count"},
		"ops_per_s":     {r.opsPerSec(), "1/s"},
		"goodput_mbps":  {r.goodputMBps(), "MB/s"},
		"fail_frac":     {frac(r.failed, r.attempted), "ratio"},
		"slo_miss_frac": {frac(r.sloMiss, r.attempted), "ratio"},
	}
	return m
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// digest folds values into an FNV-1a style hash.
type digest uint64

func newDigest() digest { return 1469598103934665603 }

func (d *digest) add(v uint64) {
	*d ^= digest(v)
	*d *= 1099511628211
}

func (d *digest) addString(s string) {
	for i := 0; i < len(s); i++ {
		d.add(uint64(s[i]))
	}
	d.add(uint64(len(s)))
}

// seal folds in every virtual result and every registry counter at
// quiesce, and stores the digest.
func (r *repResult) seal(d digest, final *obs.Snapshot) {
	for _, v := range []uint64{r.ops, r.attempted, r.failed, uint64(r.window), r.payload, r.sloMiss, uint64(r.samples)} {
		d.add(v)
	}
	for _, t := range r.lat {
		d.add(uint64(t))
	}
	for _, c := range final.Counters {
		d.add(uint64(int64(c.Node)))
		d.addString(c.Layer)
		d.addString(c.Name)
		d.add(c.Value)
	}
	r.digest = uint64(d)
}
