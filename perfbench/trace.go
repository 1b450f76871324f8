package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"bcl/internal/sim"
)

// The traced run measures the stack from the benchmark's own code: it
// records spans around every operation the benchmark calls in the stack,
// a CPU profile of every traced rep and a heap profile of every timed
// phase, and charges each profile sample to a layer.

// layers are the repository's modules, in stack order. Samples with no
// repository frame go to runtime; repository frames outside these
// modules (cluster assembly, node wiring, hardware profiles, load
// generators) go to other, and the benchmark's own frames to bench.
var layers = []string{"sim", "fabric", "nic", "oskernel", "mem", "bcl", "eadi", "mpi", "svc", "obs", "sched"}

var buckets = append(append([]string(nil), layers...), "other", "bench", "runtime")

// layerOf maps a symbolized function name to its bucket; ok is false
// for frames outside the repository, so the caller moves outward.
func layerOf(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: keep the package path
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg := fn[:slash+1+dot]
	if pkg == "bcl" {
		return "bcl", true // the root package is the public BCL API
	}
	rest, ok := strings.CutPrefix(pkg, "bcl/internal/")
	if !ok {
		if strings.HasPrefix(pkg, "bcl/") {
			return "other", true
		}
		return "", false
	}
	mod, _, _ := strings.Cut(rest, "/")
	if mod == "trace" {
		return "obs", true // the causal tracer is observability
	}
	for _, l := range layers {
		if mod == l {
			return l, true
		}
	}
	return "other", true
}

// span is one call the benchmark made into the stack. Its host
// duration includes every simulated process that ran while the caller
// was parked, so it is wait time, not self time.
type span struct {
	Name      string `json:"name"`
	ID        int32  `json:"id"`
	Parent    int32  `json:"parent"`
	Op        int64  `json:"op"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`
}

// spanAgg sums the virtual durations of the spans of one name over
// every traced rep.
type spanAgg struct {
	n    int
	virt time.Duration
}

type spanLog struct {
	epoch time.Time
	spans []span // the current rep's spans
	agg   map[string]*spanAgg
	total int
}

func (l *spanLog) open(name string, parent int32, op int64, virt sim.Time) int32 {
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Op: op,
		HostStart: int64(time.Since(l.epoch)), VirtStart: int64(virt)})
	return id
}

func (l *spanLog) close(id int32, virt sim.Time) {
	s := &l.spans[id]
	s.HostEnd, s.VirtEnd = int64(time.Since(l.epoch)), int64(virt)
	a := l.agg[s.Name]
	if a == nil {
		a = &spanAgg{}
		l.agg[s.Name] = a
	}
	a.n++
	a.virt += time.Duration(s.VirtEnd - s.VirtStart)
	l.total++
}

// meanVirtUs is the mean virtual duration of the spans named name.
func (l *spanLog) meanVirtUs(name string) float64 {
	a := l.agg[name]
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.virt) / float64(a.n) / 1e3
}

// write stores the last traced rep's spans as JSON lines.
func (l *spanLog) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}

// heapRec is one allocation site's cumulative sampled totals.
type heapRec struct{ bytes, objects int64 }

// heapSite is an allocation call stack and object size.
type heapSite struct {
	stack [32]uintptr
	size  int64
}

// tracing owns the profiles of the traced reps. err is the first
// error a profile gave.
type tracing struct {
	spans    *spanLog
	reps     int
	cpu      map[string]int64   // CPU profile samples per bucket
	heap     map[string]float64 // timed-phase heap bytes per bucket
	heapPrev map[heapSite]heapRec
	siteOf   map[[32]uintptr]string
	prof     bytes.Buffer
	err      error
}

// heapSampleRate is the heap profile's sampling interval in bytes
// during traced reps; finer than the runtime default so the smaller
// layers get enough samples.
const heapSampleRate = 4096

func newTracing() *tracing {
	runtime.MemProfileRate = heapSampleRate
	return &tracing{
		spans:    &spanLog{epoch: time.Now(), agg: map[string]*spanAgg{}},
		cpu:      map[string]int64{},
		heap:     map[string]float64{},
		heapPrev: map[heapSite]heapRec{},
		siteOf:   map[[32]uintptr]string{},
	}
}

func (t *tracing) beginRep() {
	t.spans.spans = t.spans.spans[:0]
	t.startCPU()
}

// phaseBoundary pauses the CPU profile around a forced collection that
// publishes the heap profile, so the timed phase's allocations can be
// told apart from set-up's. ended marks the end of the timed phase;
// the CPU profile stays off for the rest of the rep (its checks are
// the benchmark's own work).
func (t *tracing) phaseBoundary(ended bool) {
	t.stopCPU()
	runtime.GC()
	t.readHeap(ended)
	if !ended {
		t.startCPU()
	}
}

func (t *tracing) startCPU() {
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil && t.err == nil {
		t.err = fmt.Errorf("start CPU profile: %w", err)
	}
}

func (t *tracing) stopCPU() {
	pprof.StopCPUProfile()
	counts, err := profileBuckets(t.prof.Bytes())
	if err != nil {
		if t.err == nil {
			t.err = err
		}
		return
	}
	for b, n := range counts {
		t.cpu[b] += n
	}
}

// readHeap snapshots the heap profile; when add is set, the growth
// since the previous snapshot is charged to buckets.
func (t *tracing) readHeap(add bool) {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		if t.err == nil {
			t.err = errors.New("heap profile grew while being read")
		}
		return
	}
	for _, r := range recs[:n] {
		if r.AllocObjects == 0 {
			continue
		}
		// The runtime keeps one record per call stack and object size.
		key := heapSite{r.Stack0, r.AllocBytes / r.AllocObjects}
		cur := heapRec{bytes: r.AllocBytes, objects: r.AllocObjects}
		prev := t.heapPrev[key]
		t.heapPrev[key] = cur
		if !add || cur.objects == prev.objects {
			continue
		}
		site, ok := t.siteOf[r.Stack0]
		if !ok {
			site = stackBucket(r.Stack())
			t.siteOf[r.Stack0] = site
		}
		t.heap[site] += scaleHeap(cur.objects-prev.objects, cur.bytes-prev.bytes)
	}
}

func stackBucket(pcs []uintptr) string {
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if b, ok := layerOf(f.Function); ok {
			return b
		}
		if !more {
			return "runtime"
		}
	}
}

// scaleHeap undoes heap-profile sampling the way pprof does: an object
// of size s is sampled with probability 1-exp(-s/rate).
func scaleHeap(objects, bytes int64) float64 {
	if objects <= 0 || bytes <= 0 {
		return 0
	}
	avg := float64(bytes) / float64(objects)
	return float64(bytes) / (1 - math.Exp(-avg/heapSampleRate))
}

// profileBuckets decodes a gzipped pprof CPU profile and counts its
// samples per bucket: each sample goes to the innermost stack frame in
// the repository, or to runtime when it has none.
func profileBuckets(gz []byte) (map[string]int64, error) {
	out := map[string]int64{}
	if len(gz) == 0 {
		return out, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read CPU profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples [][2][]uint64           // location ids, values
	)
	err = pbEach(raw, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var ids, vals []uint64
			err := pbEach(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					ids = pbAppend(ids, v, d)
				case 2:
					vals = pbAppend(vals, v, d)
				}
				return nil
			})
			samples = append(samples, [2][]uint64{ids, vals})
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbEach(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbEach(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbEach(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode CPU profile: %w", err)
	}
	locBucket := map[uint64]string{}
	for id, fns := range locs {
		for _, fid := range fns {
			if idx := funcs[fid]; idx < uint64(len(strs)) {
				if b, ok := layerOf(strs[idx]); ok {
					locBucket[id] = b
					break
				}
			}
		}
	}
	for _, s := range samples {
		if len(s[1]) == 0 {
			continue
		}
		b := "runtime"
		for _, id := range s[0] {
			if lb, ok := locBucket[id]; ok {
				b = lb
				break
			}
		}
		out[b] += int64(s[1][0])
	}
	return out, nil
}

// pbEach walks the fields of one protobuf message: v is the value of a
// varint field, data the payload of a length-delimited one.
func pbEach(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbAppend appends a repeated varint field, packed or not.
func pbAppend(xs []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(xs, v)
	}
	for len(packed) > 0 {
		x, n := pbVarint(packed)
		if n <= 0 {
			break
		}
		xs = append(xs, x)
		packed = packed[n:]
	}
	return xs
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// perLayer is the -trace 1 metric set. Counts come from the first
// untraced rep's registry and kernel deltas (they repeat exactly);
// host times are medians over the untraced reps; self time and
// allocation shares come from the traced reps' profiles.
func perLayer(first *repResult, reps, treps []*repResult, tr *tracing) map[string]metric {
	ops := float64(first.ops)
	per := func(v uint64) float64 { return float64(v) / ops }
	snap := first.counters
	wall := median(reps, func(r *repResult) float64 { return r.wall.Seconds() })
	twall := median(treps, func(r *repResult) float64 { return r.wall.Seconds() })

	m := map[string]metric{
		"sim.events_per_op":      {per(first.events), "count"},
		"sim.ns_per_event":       {wall * 1e9 / float64(first.events), "ns"},
		"sim.pool_hit_pct":       {100 * frac(first.poolHits, first.poolHits+first.poolMisses), "%"},
		"fabric.pkts_per_op":     {per(snap.SumCounterPrefix("fabric:", "delivered")), "count"},
		"nic.pkts_per_op":        {per(snap.SumCounter("nic", "packets_sent")), "count"},
		"nic.retransmits":        {float64(snap.SumCounter("nic", "retransmits")), "count"},
		"oskernel.traps_per_op":  {per(snap.SumCounter("kernel", "traps")), "count"},
		"oskernel.pin_evictions": {float64(snap.SumCounter("kernel", "pin_evictions")), "count"},
		"bcl.send.virt_us":       {tr.spans.meanVirtUs("bcl.Send"), "us"},
		"bcl.waitrecv.virt_us":   {tr.spans.meanVirtUs("bcl.WaitRecv"), "us"},
		"eadi.rndv_per_op":       {per(snap.SumCounter("eadi", "rndv_sent")), "count"},
		"eadi.eager_per_op":      {per(snap.SumCounter("eadi", "eager_sent")), "count"},
		"mpi.send.virt_us":       {tr.spans.meanVirtUs("mpi.Isend") + tr.spans.meanVirtUs("mpi.Wait.send"), "us"},
		"mpi.wait.virt_us":       {tr.spans.meanVirtUs("mpi.Wait.recv"), "us"},
		"svc.cache_hit_pct":      {100 * frac(snap.SumCounter("svc", "cache_hits"), snap.SumCounter("svc", "cache_hits")+snap.SumCounter("svc", "cache_misses")), "%"},
		"svc.cli_retrans":        {float64(snap.SumCounter("svc", "cli_retrans")), "count"},
		"svc.txn_aborted":        {float64(snap.SumCounter("svc", "txn_aborted")), "count"},
		"svc.invs_sent":          {float64(snap.SumCounter("svc", "invs_sent")), "count"},
		"obs.samples":            {float64(first.samples), "count"},
		"runtime.gc_cpu_s":       {median(reps, func(r *repResult) float64 { return r.gcCPU }), "s"},
		"runtime.mallocs_per_op": {median(reps, func(r *repResult) float64 { return float64(r.mallocs) }) / ops, "count"},
		"trace.overhead_pct":     {100 * (twall/wall - 1), "%"},
		"trace.spans":            {float64(tr.spans.total) / float64(tr.reps), "count"},
	}
	v := first.virtual()
	for _, k := range []string{"lat_p50_us", "lat_p99_us", "lat_samples", "fail_frac", "slo_miss_frac"} {
		m["model."+k] = v[k]
	}
	var cpuTotal int64
	for _, n := range tr.cpu {
		cpuTotal += n
	}
	for _, b := range buckets {
		m[b+".self_pct"] = metric{100 * float64(tr.cpu[b]) / math.Max(1, float64(cpuTotal)), "%"}
		m[b+".alloc_mb"] = metric{tr.heap[b] / 1e6 / float64(tr.reps), "MB"}
	}
	return m
}
