package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"bcl"
	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/hw"
	"bcl/internal/mem"
	"bcl/internal/obs/health"
	"bcl/internal/obs/reqtrace"
	"bcl/internal/sched"
	"bcl/internal/sim"
	"bcl/internal/svc"
)

// workload is one set of inputs the benchmark runs. inputs derives
// everything a rep feeds the stack from the seed; run builds the
// machine, runs one rep and checks its outputs.
type workload struct {
	name   string
	why    string
	inputs func(seed uint64) any
	run    func(in any, rc *rep) (*repResult, error)
}

var workloads = []*workload{
	{
		name:   "pingpong-8b",
		why:    "smallest message on the eager path, so per-message cost (sim handoff, trap path, NIC firmware) dominates",
		inputs: pingpongInputs,
		run:    runPingpong,
	},
	{
		name:   "mpi-stream-64k",
		why:    "multi-fragment MPI rendezvous traffic, so per-packet NIC/fabric work and payload copies dominate",
		inputs: streamInputs,
		run:    runStream,
	},
	{
		name:   "kv-swarm",
		why:    "open-loop sharded KV with caches and 2PC under the gang scheduler: the only load on svc, obs and sched",
		inputs: kvInputs,
		run:    runKV,
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// ---------------------------------------------------------------------
// pingpong-8b: two nodes, one BCL port each. The client sends 8 bytes
// on the system channel, the server echoes them back from the system
// buffer they landed in and returns that buffer; one round trip is one
// operation and its latency is RTT/2. A closed loop with one client and
// one operation outstanding.

const (
	pingWarm = 64   // untimed round trips after the ports open
	pingOps  = 5000 // timed round trips per rep
	pingSize = 8
)

type pingIn struct {
	seed     uint64
	payloads [][pingSize]byte // one per round trip, warm-up first
}

func pingpongInputs(seed uint64) any {
	r := sim.NewRand(seed)
	in := &pingIn{seed: seed, payloads: make([][pingSize]byte, pingWarm+pingOps)}
	for i := range in.payloads {
		binary.LittleEndian.PutUint64(in.payloads[i][:], r.Uint64())
	}
	return in
}

func runPingpong(v any, rc *rep) (*repResult, error) {
	in := v.(*pingIn)
	res := &repResult{}
	var checkErr error
	var vStart, vEnd sim.Time
	waiting, finished := 0, 0

	sp := rc.open("bcl.NewMachine", -1, 0, 0)
	m := bcl.NewMachine(bcl.MachineConfig{Nodes: 2, Seed: in.seed})
	env := m.Cluster.Env
	defer env.Close()
	rc.close(sp, env.Now())
	gate := sim.NewSignal(env)

	echo := make([]byte, pingSize)
	client := func(ctx *bcl.Ctx, buf bcl.VAddr, i int, rtt int32) {
		p, op := ctx.P, int64(i)
		timed := i >= pingWarm
		want := in.payloads[i][:]
		sp := rc.open("mem.Write", rtt, op, p.Now())
		err := ctx.Write(buf, want)
		rc.close(sp, p.Now())
		if err != nil {
			checkErr = fmt.Errorf("pingpong-8b: write payload: %w", err)
			return
		}
		t0 := p.Now()
		sp = rc.open("bcl.Send", rtt, op, t0)
		_, err = ctx.Port.Send(p, ctx.Peers[1], bcl.SystemChannel, buf, pingSize, uint64(i))
		rc.close(sp, p.Now())
		if timed {
			res.attempted++
		}
		if err != nil {
			if timed {
				res.failed++
			}
			checkErr = fmt.Errorf("pingpong-8b: send %d: %w", i, err)
			return
		}
		sp = rc.open("bcl.WaitRecv", rtt, op, p.Now())
		ev := ctx.Port.WaitRecv(p)
		rc.close(sp, p.Now())
		t1 := p.Now()
		got := echo[:min(ev.Len, len(echo))]
		sp = rc.open("mem.Read", rtt, op, p.Now())
		err = readInto(ctx.Port.Process().Space, ev.VA, got)
		rc.close(sp, p.Now())
		if err != nil || ev.Len != pingSize || !bytes.Equal(got, want) {
			checkErr = failCheck("pingpong-8b echo", "round trip %d: sent %x, echo carried %x (%v)", i, want, got, err)
			return
		}
		sp = rc.open("bcl.ReturnSystemBuffer", rtt, op, p.Now())
		err = ctx.Port.ReturnSystemBuffer(p, ev.VA, ev.Len)
		rc.close(sp, p.Now())
		if err != nil {
			checkErr = fmt.Errorf("pingpong-8b: return buffer: %w", err)
			return
		}
		sp = rc.open("bcl.WaitSend", rtt, op, p.Now())
		sev := ctx.Port.WaitSend(p)
		rc.close(sp, p.Now())
		if sev.Type == bcl.EvSendFailed {
			if timed {
				res.failed++
			}
			checkErr = failCheck("pingpong-8b send", "round trip %d: EvSendFailed", i)
			return
		}
		if timed {
			res.ops++
			res.lat = append(res.lat, (t1-t0)/2)
			vEnd = p.Now()
		}
	}
	server := func(ctx *bcl.Ctx, i int) {
		p, op := ctx.P, int64(i)
		sp := rc.open("bcl.WaitRecv", -1, op, p.Now())
		ev := ctx.Port.WaitRecv(p)
		rc.close(sp, p.Now())
		sp = rc.open("bcl.Send", -1, op, p.Now())
		_, err := ctx.Port.Send(p, ctx.Peers[0], bcl.SystemChannel, ev.VA, ev.Len, ev.Tag)
		rc.close(sp, p.Now())
		if err != nil {
			checkErr = fmt.Errorf("pingpong-8b: echo %d: %w", i, err)
			return
		}
		sp = rc.open("bcl.WaitSend", -1, op, p.Now())
		sev := ctx.Port.WaitSend(p)
		rc.close(sp, p.Now())
		if sev.Type == bcl.EvSendFailed {
			checkErr = failCheck("pingpong-8b send", "echo %d: EvSendFailed", i)
			return
		}
		sp = rc.open("bcl.ReturnSystemBuffer", -1, op, p.Now())
		err = ctx.Port.ReturnSystemBuffer(p, ev.VA, ev.Len)
		rc.close(sp, p.Now())
		if err != nil {
			checkErr = fmt.Errorf("pingpong-8b: return buffer: %w", err)
		}
	}

	sp = rc.open("bcl.Start", -1, 0, env.Now())
	m.Start(2, []int{0, 1}, func(ctx *bcl.Ctx) {
		buf := ctx.Alloc(pingSize)
		for i := range in.payloads {
			if i == pingWarm {
				waiting++
				gate.Wait(ctx.P)
			}
			if ctx.Rank == 0 {
				rtt := rc.open("pingpong.rtt", -1, int64(i), ctx.P.Now())
				client(ctx, buf, i, rtt)
				rc.close(rtt, ctx.P.Now())
			} else {
				server(ctx, i)
			}
			if checkErr != nil {
				return
			}
		}
		finished++
	})
	rc.close(sp, env.Now())

	// Set-up: boot, open both ports and warm up, until both ranks wait
	// at the gate and the machine is idle.
	runSim(rc, env, sim.Forever)
	if checkErr != nil {
		return nil, checkErr
	}
	if waiting != 2 {
		return nil, failCheck("pingpong-8b setup", "%d of 2 ranks reached the timed phase", waiting)
	}
	rc.beginTimed(env, m.Cluster.Obs)
	vStart = env.Now()
	gate.Fire()
	runSim(rc, env, sim.Forever)
	rc.endTimed()
	if checkErr != nil {
		return nil, checkErr
	}
	if finished != 2 || res.ops != pingOps {
		return nil, failCheck("pingpong-8b completed", "%d of %d round trips, %d of 2 ranks finished", res.ops, pingOps, finished)
	}
	res.window = vEnd - vStart
	res.payload = 2 * pingSize * res.ops
	d := newDigest()
	d.addString("pingpong-8b")
	res.seal(d, m.Metrics())
	return res, nil
}

// readInto copies len(buf) bytes at va into buf; unlike
// AddrSpace.Read it allocates no payload copy, so the benchmark's own
// checks stay out of the allocation figures.
func readInto(space *mem.AddrSpace, va bcl.VAddr, buf []byte) error {
	segs, err := space.Segments(va, len(buf))
	if err != nil {
		return err
	}
	done := 0
	for _, s := range segs {
		if err := space.Mem().ReadPhys(s.Phys, buf[done:done+s.Len]); err != nil {
			return err
		}
		done += s.Len
	}
	return nil
}

// runSim runs env up to deadline (until idle for sim.Forever) inside a
// span.
func runSim(rc *rep, env *sim.Env, deadline sim.Time) {
	sp := rc.open("sim.RunUntil", -1, 0, env.Now())
	env.RunUntil(deadline)
	rc.close(sp, env.Now())
}

// ---------------------------------------------------------------------
// mpi-stream-64k: four MPI rank pairs on a ring of four nodes (node i
// sends to node i+1, so every NIC both sends and receives one stream).
// Each sender keeps a window of 64 KB Isends outstanding; each
// receiver keeps the same window of Irecvs posted and checks every
// payload against its per-message pattern. One message is one
// operation; its latency runs from the Isend to the receiver's Wait
// returning.

const (
	streamNodes   = 4
	streamWindow  = 4
	streamWarm    = 8   // untimed messages per stream
	streamMsgs    = 280 // timed messages per stream per rep
	streamSize    = 64 << 10
	streamPattern = 8 // distinct seeded payload patterns per seed
)

type streamIn struct {
	seed     uint64
	patterns [][]byte // seeded payload bodies
}

func streamInputs(seed uint64) any {
	r := sim.NewRand(seed)
	in := &streamIn{seed: seed}
	for i := 0; i < streamPattern; i++ {
		b := make([]byte, streamSize)
		r.Fill(b)
		in.patterns = append(in.patterns, b)
	}
	return in
}

// message fills buf with message j of stream s: a seeded pattern
// stamped with the stream and message number, so every message differs.
func (in *streamIn) message(buf []byte, s, j int) {
	copy(buf, in.patterns[(s+j)%len(in.patterns)])
	binary.LittleEndian.PutUint64(buf, uint64(s)<<32|uint64(j))
}

func runStream(v any, rc *rep) (*repResult, error) {
	in := v.(*streamIn)
	res := &repResult{}
	total := streamWarm + streamMsgs
	var checkErr error
	var vStart, vEnd sim.Time
	waiting, finished := 0, 0
	posted := make([][]sim.Time, streamNodes)
	for i := range posted {
		posted[i] = make([]sim.Time, total)
	}
	fail := func(err error) {
		if checkErr == nil {
			checkErr = err
		}
	}

	sp := rc.open("bcl.NewMachine", -1, 0, 0)
	m := bcl.NewMachine(bcl.MachineConfig{Nodes: streamNodes, Seed: in.seed})
	env := m.Cluster.Env
	defer env.Close()
	rc.close(sp, env.Now())
	gate := sim.NewSignal(env)

	sender := func(p *bcl.Proc, comm *bcl.MPIComm, s int) {
		space := comm.Device().Port().Process().Space
		dst := comm.Rank() + 1
		bufs := make([]bcl.VAddr, streamWindow)
		for k := range bufs {
			bufs[k] = space.Alloc(streamSize)
		}
		body := make([]byte, streamSize)
		reqs := make([]*bcl.MPIRequest, streamWindow)
		wait := func(j int) bool {
			sp := rc.open("mpi.Wait.send", -1, int64(j), p.Now())
			_, err := reqs[j%streamWindow].Wait(p)
			rc.close(sp, p.Now())
			reqs[j%streamWindow] = nil
			if err != nil {
				if j >= streamWarm {
					res.failed++
				}
				fail(fmt.Errorf("mpi-stream-64k: stream %d send %d: %w", s, j, err))
				return false
			}
			return true
		}
		for j := 0; j < total; j++ {
			if j == streamWarm {
				for k := j - streamWindow; k < j; k++ {
					if !wait(k) {
						return
					}
				}
				waiting++
				gate.Wait(p)
			}
			if reqs[j%streamWindow] != nil && !wait(j-streamWindow) {
				return
			}
			in.message(body, s, j)
			sp := rc.open("mem.Write", -1, int64(j), p.Now())
			err := space.Write(bufs[j%streamWindow], body)
			rc.close(sp, p.Now())
			if err != nil {
				fail(fmt.Errorf("mpi-stream-64k: write payload: %w", err))
				return
			}
			posted[s][j] = p.Now()
			if j >= streamWarm {
				res.attempted++
			}
			sp = rc.open("mpi.Isend", -1, int64(j), p.Now())
			reqs[j%streamWindow], err = comm.Isend(p, bufs[j%streamWindow], streamSize, dst, j)
			rc.close(sp, p.Now())
			if err != nil {
				if j >= streamWarm {
					res.failed++
				}
				fail(fmt.Errorf("mpi-stream-64k: stream %d isend %d: %w", s, j, err))
				return
			}
		}
		for j := total - streamWindow; j < total; j++ {
			if !wait(j) {
				return
			}
		}
		finished++
	}
	receiver := func(p *bcl.Proc, comm *bcl.MPIComm, s int) {
		space := comm.Device().Port().Process().Space
		src := comm.Rank() - 1
		bufs := make([]bcl.VAddr, streamWindow)
		reqs := make([]*bcl.MPIRequest, streamWindow)
		want := make([]byte, streamSize)
		got := make([]byte, streamSize)
		irecv := func(j int) bool {
			sp := rc.open("mpi.Irecv", -1, int64(j), p.Now())
			r, err := comm.Irecv(p, bufs[j%streamWindow], streamSize, src, j)
			rc.close(sp, p.Now())
			if err != nil {
				fail(fmt.Errorf("mpi-stream-64k: stream %d irecv %d: %w", s, j, err))
				return false
			}
			reqs[j%streamWindow] = r
			return true
		}
		for k := range bufs {
			bufs[k] = space.Alloc(streamSize)
			if !irecv(k) {
				return
			}
		}
		for j := 0; j < total; j++ {
			if j == streamWarm {
				waiting++
				gate.Wait(p)
			}
			sp := rc.open("mpi.Wait.recv", -1, int64(j), p.Now())
			st, err := reqs[j%streamWindow].Wait(p)
			rc.close(sp, p.Now())
			if err != nil {
				if j >= streamWarm {
					res.failed++
				}
				fail(fmt.Errorf("mpi-stream-64k: stream %d recv %d: %w", s, j, err))
				return
			}
			done := p.Now()
			sp = rc.open("mem.Read", -1, int64(j), p.Now())
			err = readInto(space, bufs[j%streamWindow], got)
			rc.close(sp, p.Now())
			in.message(want, s, j)
			if err != nil || st.Source != src || st.Tag != j || st.Len != streamSize || !bytes.Equal(got, want) {
				fail(failCheck("mpi-stream-64k payload", "stream %d message %d: status %+v, payload matches %v (%v)",
					s, j, st, err == nil && bytes.Equal(got, want), err))
				return
			}
			if j >= streamWarm {
				res.ops++
				res.lat = append(res.lat, done-posted[s][j])
				if done > vEnd {
					vEnd = done
				}
			}
			if j+streamWindow < total && !irecv(j+streamWindow) {
				return
			}
		}
		finished++
	}

	ranks := 2 * streamNodes
	placement := make([]int, ranks)
	for s := 0; s < streamNodes; s++ {
		placement[2*s] = s
		placement[2*s+1] = (s + 1) % streamNodes
	}
	sp = rc.open("bcl.StartMPI", -1, 0, env.Now())
	m.StartMPI(ranks, placement, func(p *bcl.Proc, comm *bcl.MPIComm) {
		if comm.Rank()%2 == 0 {
			sender(p, comm, comm.Rank()/2)
		} else {
			receiver(p, comm, comm.Rank()/2)
		}
	})
	rc.close(sp, env.Now())

	runSim(rc, env, sim.Forever)
	if checkErr != nil {
		return nil, checkErr
	}
	if waiting != ranks {
		return nil, failCheck("mpi-stream-64k setup", "%d of %d ranks reached the timed phase", waiting, ranks)
	}
	rc.beginTimed(env, m.Cluster.Obs)
	vStart = env.Now()
	gate.Fire()
	runSim(rc, env, sim.Forever)
	rc.endTimed()
	if checkErr != nil {
		return nil, checkErr
	}
	if want := uint64(streamNodes * streamMsgs); finished != ranks || res.ops != want {
		return nil, failCheck("mpi-stream-64k completed", "%d of %d messages, %d of %d ranks finished", res.ops, want, finished, ranks)
	}
	res.window = vEnd - vStart
	res.payload = res.ops * streamSize
	d := newDigest()
	d.addString("mpi-stream-64k")
	res.seal(d, m.Metrics())
	return res, nil
}

// ---------------------------------------------------------------------
// kv-swarm: the service tier. Three shard servers and two driver nodes
// whose swarm job runs under the gang scheduler; each driver
// multiplexes thousands of simulated users over one authenticated
// session per shard. Open-loop Poisson arrivals at one fixed rate
// below saturation; 60% GET, 30% PUT, 10% cross-shard transaction;
// bounded-Pareto values of 16-1024 B. The health sampler and the
// request recorder are on; no faults are injected. One request is one
// operation; its latency runs from its arrival to its reply.
//
// Transactions spread over kvPairs key pairs, so two of them rarely
// contend for a 2PC prepare lock and no operation fails. With serve's
// 12 contended pairs, lock conflicts abort a few transactions in every
// rep, and the service tier's known seed-dependent defect stalls some
// requests for up to a second on some seeds and leaves a client cache
// incoherent on others; kv_test.go keeps that mix under test.
//
// A transaction request carries its value twice, so with 1024 B values
// it is about 2.1 KB: every system buffer is kvBufSize, which holds it.
// With serve's 2048 B buffers such a request can never be delivered and
// wedges its link; kv_test.go keeps that defect under test too.

const (
	kvShards      = 3
	kvDrivers     = 2
	kvUsers       = 12000 // per driver
	kvArrivalMean = 60 * sim.Microsecond
	kvKeys        = 96
	kvPairs       = 4096
	kvBufSize     = 4096
	kvBootLimit   = 100                   // ms of virtual time the shards may take to boot
	kvAuthLead    = 2 * sim.Millisecond   // from boot to the first arrival
	kvWarm        = 10 * sim.Millisecond  // arrivals before the timed phase
	kvWindow      = 110 * sim.Millisecond // timed arrivals
	kvDrain       = 20 * sim.Millisecond  // timed tail after the last arrival
	kvSample      = 5 * sim.Millisecond   // health sampler period
	kvQuiesce     = 2 * sim.Second        // untimed drain limit before the checks
	kvSettle      = 30 * sim.Millisecond
	kvAuthSeed    = 0xbc1
)

type kvIn struct {
	seed   uint64
	pairs  int      // transaction key pairs
	buf    int      // system and send buffer size, bytes
	window sim.Time // timed arrival window
	dseeds []uint64 // per-driver operation-mix seeds
	gaps   [][]sim.Time
	sizes  [][]int
}

func kvInputs(seed uint64) any { return kvInputsWith(seed, kvPairs, kvWindow, kvBufSize) }

// kvInputsWith draws each driver's arrivals and value sizes. Arrivals
// are a Poisson process conditioned on its count: a fixed number of
// uniformly placed arrivals in the warm-up and in the timed window, so
// every seed offers the same load. Sizes are bounded Pareto, drawn in
// blocks that take one value from each of sizeStrata equal-probability
// strata in shuffled order, so every seed moves nearly the same bytes.
func kvInputsWith(seed uint64, pairs int, window sim.Time, buf int) *kvIn {
	r := sim.NewRand(seed)
	in := &kvIn{seed: seed, pairs: pairs, buf: buf, window: window}
	for i := 0; i < kvDrivers; i++ {
		in.dseeds = append(in.dseeds, r.Uint64())
		var at []sim.Time
		at = append(at, uniformArrivals(r, 0, kvWarm)...)
		at = append(at, uniformArrivals(r, kvWarm, window)...)
		gaps := make([]sim.Time, len(at))
		for k := 1; k < len(at); k++ {
			gaps[k-1] = at[k] - at[k-1]
		}
		gaps[len(at)-1] = kvWarm + window // past the end: arrivals stop
		in.gaps = append(in.gaps, gaps)
		in.sizes = append(in.sizes, paretoSizes(r, len(at), 16, 1024, 1.3))
	}
	return in
}

// uniformArrivals places d/kvArrivalMean arrivals uniformly in
// [from, from+d), sorted. The first one of the warm-up sits at 0, the
// driver's first arrival instant.
func uniformArrivals(r *sim.Rand, from, d sim.Time) []sim.Time {
	n := int(d / kvArrivalMean)
	at := make([]sim.Time, n)
	for i := range at {
		at[i] = from + sim.Time(r.Int63n(int64(d)))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	if from == 0 && n > 0 {
		at[0] = 0
	}
	return at
}

const sizeStrata = 64

// paretoSizes draws n bounded-Pareto sizes on [lo, hi] with tail index
// alpha by inverse CDF, stratified in shuffled blocks of sizeStrata.
func paretoSizes(r *sim.Rand, n, lo, hi int, alpha float64) []int {
	loA, hiA := math.Pow(float64(lo), -alpha), math.Pow(float64(hi), -alpha)
	out := make([]int, 0, n+sizeStrata)
	for len(out) < n {
		block := make([]int, sizeStrata)
		for k := range block {
			u := (float64(k) + r.Float64()) / sizeStrata
			block[k] = int(math.Pow(loA-u*(loA-hiA), -1/alpha))
		}
		for k := len(block) - 1; k > 0; k-- {
			j := r.Intn(k + 1)
			block[k], block[j] = block[j], block[k]
		}
		out = append(out, block...)
	}
	return out[:n]
}

// replay feeds precomputed inputs to a driver: it implements both
// svc.Arrivals and svc.Sizes.
type replay[T any] struct {
	xs   []T
	i    int
	last T // returned once xs is spent
}

func (r *replay[T]) Next() T {
	if r.i >= len(r.xs) {
		return r.last
	}
	r.i++
	return r.xs[r.i-1]
}

// kvSLO is the service-tier latency objective of the repository's
// svc-slo-burn health rule.
func kvSLO() sim.Time {
	for _, r := range health.DefaultRules() {
		if r.Name == "svc-slo-burn" {
			return sim.Time(r.Src.BoundNs)
		}
	}
	panic("perfbench: health.DefaultRules has no svc-slo-burn rule")
}

func runKV(v any, rc *rep) (*repResult, error) {
	in := v.(*kvIn)
	res := &repResult{}
	var checkErr error
	fail := func(err error) {
		if checkErr == nil {
			checkErr = err
		}
	}

	sp := rc.open("cluster.New", -1, 0, 0)
	c := cluster.New(cluster.Config{
		Nodes: kvShards + kvDrivers, Profile: hw.DAWNING3000(),
		NIC: ibcl.DefaultNICConfig(), Seed: in.seed, Health: true,
	})
	env := c.Env
	defer env.Close()
	c.Obs.StartSampler(env, kvSample, 1<<12)
	rec := reqtrace.New(reqtrace.Config{SLO: kvSLO(), Shards: kvShards})
	c.Obs.RegisterCollector(rec.Collector())
	c.Obs.RegisterGaugeCollector(rec.GaugeCollector())
	sys := ibcl.NewSystem(c)
	ring := svc.NewRing(kvShards, 64)
	pa, pb := kvPairKeys(ring, in.pairs)
	rc.close(sp, env.Now())

	servers := make([]*svc.Server, kvShards)
	var addrs []ibcl.Addr
	booted := false
	env.Go("perfbench/shards", func(p *sim.Proc) {
		opts := ibcl.Options{SystemBuffers: 256, SystemBufSize: in.buf}
		var ports []*ibcl.Port
		for i := 0; i < kvShards; i++ {
			nd := c.Nodes[i]
			sp := rc.open("bcl.Open", -1, int64(i), p.Now())
			pt, err := sys.Open(p, nd, nd.Kernel.Spawn(), opts)
			rc.close(sp, p.Now())
			if err != nil {
				fail(fmt.Errorf("kv-swarm: open shard port: %w", err))
				return
			}
			ports = append(ports, pt)
			addrs = append(addrs, pt.Addr())
		}
		for i, pt := range ports {
			sp := rc.open("svc.NewServer", -1, int64(i), p.Now())
			servers[i] = svc.NewServer(p, pt, in.buf, svc.ServerConfig{
				Index: i, Shards: addrs, Ring: ring,
				AuthSeed: kvAuthSeed, Seed: in.seed, ReqObs: rec,
			})
			rc.close(sp, p.Now())
			env.Go(fmt.Sprintf("shard%d", i), servers[i].Run)
		}
		booted = true
	})
	for i := 0; i < kvBootLimit && !booted; i++ {
		runSim(rc, env, env.Now()+sim.Millisecond)
	}
	if checkErr != nil {
		return nil, checkErr
	}
	if !booted {
		return nil, failCheck("kv-swarm setup", "shard servers did not boot in %d ms", kvBootLimit)
	}
	start := env.Now() + kvAuthLead

	sp = rc.open("sched.New", -1, 0, env.Now())
	s := sched.New(env, c.Size(), 4, false)
	c.Obs.RegisterCollector(s.Collect)
	rc.close(sp, env.Now())
	drivers := make([]*svc.Driver, kvDrivers)
	driverNodes := make([]int, kvDrivers)
	for i := range driverNodes {
		driverNodes[i] = kvShards + i
	}
	sp = rc.open("sched.Submit", -1, 0, env.Now())
	s.Submit(sched.JobSpec{
		Name: "swarm", Ranks: kvDrivers, Nodes: driverNodes, RanksPerNode: 1,
		EstRuntime: kvAuthLead + kvWarm + in.window, Priority: 1, QoSWeight: 8,
		Body: func(p *sim.Proc, ctx *sched.RankCtx) {
			nd := c.Nodes[ctx.Node]
			sp := rc.open("bcl.Open", -1, int64(ctx.Rank), p.Now())
			pt, err := sys.Open(p, nd, nd.Kernel.Spawn(), ibcl.Options{
				SystemBuffers: 256, SystemBufSize: in.buf,
				Label: "swarm", QoSWeight: ctx.Job.Spec.QoSWeight,
			})
			rc.close(sp, p.Now())
			if err != nil {
				fail(fmt.Errorf("kv-swarm: open driver port: %w", err))
				return
			}
			dseed := in.dseeds[ctx.Rank]
			sp = rc.open("svc.NewDriver", -1, int64(ctx.Rank), p.Now())
			d := svc.NewDriver(p, pt, in.buf, svc.DriverConfig{
				Shards: addrs, Ring: ring,
				Users: kvUsers, UserName: fmt.Sprintf("swarm%d", ctx.Rank),
				AuthSeed: kvAuthSeed, Seed: dseed,
				Arrivals: &replay[sim.Time]{xs: in.gaps[ctx.Rank], last: kvWarm + in.window},
				Sizes:    &replay[int]{xs: in.sizes[ctx.Rank], last: 16},
				Keys:     kvKeys, GetFrac: 0.6, TxnFrac: 0.1,
				PairA: pa, PairB: pb,
				Start: start, Duration: kvWarm + in.window,
				Trace: true, ReqObs: rec,
			})
			rc.close(sp, p.Now())
			drivers[ctx.Rank] = d
			d.Run(p)
		},
	})
	rc.close(sp, env.Now())

	// Set-up ends once the sessions have authenticated and the first
	// kvWarm of arrivals has filled the client caches.
	tWarm := start + kvWarm
	runSim(rc, env, tWarm)
	if checkErr != nil {
		return nil, checkErr
	}
	for i, d := range drivers {
		if d == nil {
			return nil, failCheck("kv-swarm setup", "driver %d did not start before the timed phase", i)
		}
	}
	type tally struct{ issued, done, aborts uint64 }
	count := func() (t tally) {
		for _, d := range drivers {
			st := d.Stats()
			t.issued += st.Issued
			t.done += st.Done
			t.aborts += st.TxnAborts
		}
		return t
	}
	var samples0 []int
	for _, d := range drivers {
		samples0 = append(samples0, len(d.Samples()))
	}
	t0 := count()
	ticks0 := len(c.Obs.Samples())
	rc.beginTimed(env, c.Obs)
	bytes0 := rc.start.reg.SumCounter("bcl", "bytes_received")

	tEnd := tWarm + in.window
	for env.Now() < tEnd {
		runSim(rc, env, env.Now()+sim.Millisecond)
	}
	t1 := count()
	bytes1 := c.Obs.Snapshot(env.Now()).SumCounter("bcl", "bytes_received")
	runSim(rc, env, tEnd+kvDrain)
	res.samples = len(c.Obs.Samples()) - ticks0
	rc.endTimed()

	// Quiesce, untimed: every user idle, then let trailing invalidations
	// and 2PC acks land before the checks.
	drained := func() bool {
		for _, d := range drivers {
			if d.Generating() || !d.Drained() {
				return false
			}
		}
		return true
	}
	for env.Now() < tEnd+kvQuiesce && !drained() {
		runSim(rc, env, env.Now()+sim.Millisecond)
	}
	runSim(rc, env, env.Now()+kvSettle)
	if checkErr != nil {
		return nil, checkErr
	}
	t2 := count()

	slo := kvSLO()
	for i, d := range drivers {
		all := d.Samples()
		if uint64(len(all)) != d.Stats().Done {
			return nil, failCheck("kv-swarm accounting", "driver %d: %d latency samples for %d answers", i, len(all), d.Stats().Done)
		}
		for _, l := range all[samples0[i]:] {
			res.lat = append(res.lat, l)
			if l > slo {
				res.sloMiss++
			}
		}
	}
	res.attempted = t2.issued - t0.issued
	unanswered := t2.issued - t2.done
	res.failed = (t2.aborts - t0.aborts) + unanswered
	res.sloMiss += res.failed
	res.ops = t1.done - t0.done
	res.window = tEnd - tWarm
	res.payload = bytes1 - bytes0
	res.sloAlerts = c.Health.FiredCount("svc-slo-burn")
	if err := checkKV(drivers, servers, ring, pa, pb); err != nil {
		return nil, err
	}

	d := newDigest()
	d.addString("kv-swarm")
	d.add(unanswered)
	d.add(uint64(res.sloAlerts))
	for _, sv := range servers {
		committed, aborted, invs := sv.Stats()
		d.add(committed)
		d.add(aborted)
		d.add(invs)
	}
	for i := range pa {
		for _, key := range []string{pa[i], pb[i]} {
			val, ver := servers[ring.Shard(key)].Peek(key)
			d.add(ver)
			d.addString(string(val))
		}
	}
	res.seal(d, c.Obs.Snapshot(env.Now()))
	return res, nil
}

// checkKV checks the service tier's outputs at quiesce: no
// linearizable-read violation, every transaction pair atomic, every
// cached entry at its shard's committed version.
func checkKV(drivers []*svc.Driver, servers []*svc.Server, ring *svc.Ring, pa, pb []string) error {
	for i, d := range drivers {
		if n := d.Stats().Violations; n != 0 {
			return failCheck("kv-swarm linearizable reads", "driver %d saw %d monotonic-read or read-your-writes violations", i, n)
		}
		cached := d.CacheSnapshot()
		keys := make([]string, 0, len(cached))
		for k := range cached {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, ver := servers[ring.Shard(k)].Peek(k); ver != cached[k] {
				return failCheck("kv-swarm coherent caches", "driver %d caches %s at version %d, its shard holds %d", i, k, cached[k], ver)
			}
		}
	}
	for i := range pa {
		va, vera := servers[ring.Shard(pa[i])].Peek(pa[i])
		vb, verb := servers[ring.Shard(pb[i])].Peek(pb[i])
		if (vera == 0) != (verb == 0) || !bytes.Equal(va, vb) {
			return failCheck("kv-swarm atomicity", "transaction pair %s/%s is half applied", pa[i], pb[i])
		}
	}
	return nil
}

// kvPairKeys builds the transaction key pairs; the halves of every
// pair live on different shards, so every transaction runs 2PC.
func kvPairKeys(ring *svc.Ring, n int) (pa, pb []string) {
	for i := 0; len(pa) < n; i++ {
		a, b := fmt.Sprintf("pa%05d", i), fmt.Sprintf("pb%05d", i)
		if ring.Shard(a) != ring.Shard(b) {
			pa = append(pa, a)
			pb = append(pb, b)
		}
	}
	return pa, pb
}
