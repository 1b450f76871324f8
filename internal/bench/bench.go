// Package bench is the experiment harness: it rebuilds every table and
// figure of the paper's evaluation section (Table 1-3, Figures 5-9)
// plus the ablations called out in DESIGN.md, as formatted reports
// with machine-readable key metrics. Both the root testing.B
// benchmarks and cmd/bclbench drive it.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"bcl/internal/amii"
	ibcl "bcl/internal/bcl"
	"bcl/internal/bip"
	"bcl/internal/cluster"
	"bcl/internal/eadi"
	"bcl/internal/hw"
	"bcl/internal/klc"
	"bcl/internal/mem"
	"bcl/internal/mpi"
	"bcl/internal/obs"
	"bcl/internal/obs/prof"
	"bcl/internal/pvm"
	"bcl/internal/sim"
	"bcl/internal/ulc"
)

// Report is one reproduced experiment.
type Report struct {
	ID      string
	Title   string
	Text    string
	Metrics map[string]float64

	// Snap is the merged registry snapshot over every cluster the
	// experiment built (captured by All/ByID when the experiment did not
	// set one itself). Summary is its one-line digest.
	Snap    *obs.Snapshot
	Summary string

	// Flight is the concatenated flight-recorder contents of every
	// cluster the experiment built — the evidence a gate-failure
	// postmortem bundle dumps.
	Flight []obs.Event

	// Attribution and LogP carry the structured profiler outputs of the
	// profile/logp experiments (nil elsewhere); the benchmark artifact
	// embeds them.
	Attribution *prof.Profile
	LogP        *prof.LogGP
}

func (r *Report) String() string {
	return fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Text)
}

// metric records a key number.
func (r *Report) metric(k string, v float64) { r.Metrics[k] = v }

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Metrics: make(map[string]float64)}
}

// experiment is one registry entry. Exactly one constructor is set:
// seeded for experiments whose fault/traffic schedule honors -seed,
// fn for the rest.
type experiment struct {
	id      string
	aliases []string
	title   string
	fn      func() *Report
	seeded  func(seed uint64) *Report
}

// experiments maps every experiment id (and alias) to its constructor,
// in paper order.
var experiments = []experiment{
	{id: "table1", title: "Comparison of three communication architectures", fn: Table1},
	{id: "overheads", title: "Processor overheads (send/completion/receive)", fn: Overheads},
	{id: "fig5", aliases: []string{"figure5"}, title: "Transmission timeline for a BCL message", fn: Figure5},
	{id: "fig6", aliases: []string{"figure6"}, title: "Reception timeline for a BCL message", fn: Figure6},
	{id: "fig7", aliases: []string{"figure7"}, title: "One-way latency timeline, 0-length message", fn: Figure7},
	{id: "fig8", aliases: []string{"figure8"}, title: "Latency vs message size", fn: Figure8},
	{id: "fig9", aliases: []string{"figure9"}, title: "Bandwidth vs message size", fn: Figure9},
	{id: "table2", title: "Comparison of communication protocols", fn: Table2},
	{id: "table3", title: "Performance of BCL and MPI/PVM over BCL", fn: Table3},
	{id: "fabrics", title: "BCL over Myrinet, nwrc mesh, and the composite", fn: Fabrics},
	{id: "scale", title: "Collective scaling to the full 70-node machine", fn: Scale},
	{id: "pingpong", title: "BCL ping-pong with cluster-wide metrics registry", fn: PingPong},
	{id: "flowtrace", title: "Causal flow trace of one message (forced retransmission)", fn: FlowTrace},
	{id: "ablation-pio", title: "PIO cost sweep", fn: AblationPIO},
	{id: "ablation-cpu", title: "Host CPU speed sweep", fn: AblationCPU},
	{id: "ablation-reliability", title: "Reliable vs raw firmware", fn: AblationReliability},
	{id: "ablation-kernelpath", title: "Kernel path vs bandwidth", fn: AblationKernelPath},
	{id: "ablation-pipeline", title: "Intra-node pipelining", fn: AblationPipeline},
	{id: "ablation-window", title: "Go-back-N window sweep", fn: AblationWindow},
	{id: "ablation-intrapath", title: "Intra-node strategies: loopback vs shm vs direct", fn: AblationIntraPath},
	{id: "chaos", title: "Deterministic chaos soak", seeded: ChaosSeeded},
	{id: "survival", title: "Survivable NIC gauntlet: crash recovery, corruption, gray failures", seeded: SurvivalSeeded},
	{id: "collectives", title: "NIC-offloaded collectives vs host algorithms", seeded: CollectivesSeeded},
	{id: "collflow", title: "Causal flow trace of one offloaded broadcast + barrier", fn: CollFlow},
	{id: "crashflow", title: "Causal flow trace of one message across a firmware crash + recovery", fn: CrashFlow},
	{id: "profile", title: "Virtual-time attribution of one eager send", fn: Profile},
	{id: "logp", title: "LogP/LogGP parameters extracted from profiler spans", fn: LogP},
	{id: "multitenant", aliases: []string{"mt"}, title: "Multi-tenant cluster: scheduler, endpoint isolation, QoS arbitration", fn: Multitenant},
	{id: "healthwatch", aliases: []string{"health"}, title: "Cluster health engine: clean silence, fault alerts, postmortem bundles", seeded: HealthWatchSeeded},
	{id: "serve", aliases: []string{"svc"}, title: "Service tier: sharded RPC/KV, transactions, open-loop swarm", seeded: ServeSeeded},
	{id: "reqobs", aliases: []string{"reqtrace"}, title: "Request-level observability: tail-sampled traces, exemplars, heavy hitters, slow log", seeded: ReqObsSeeded},
	{id: "rpcflow", title: "Causal flow trace of one cross-shard transaction (2PC over BCL)", fn: RPCFlow},
}

// Info describes one registered experiment for listings.
type Info struct {
	ID      string
	Aliases []string
	Title   string
	Seeded  bool // honors -seed (fault/traffic schedule variants)
	Gated   bool // compared against a committed baseline by -check
}

// List returns every registered experiment in paper order.
func List() []Info {
	gated := make(map[string]bool, len(GatedExperiments))
	for _, g := range GatedExperiments {
		gated[g.ID] = true
	}
	var out []Info
	for _, e := range experiments {
		out = append(out, Info{
			ID:      e.id,
			Aliases: e.aliases,
			Title:   e.title,
			Seeded:  e.seeded != nil,
			Gated:   gated[e.id],
		})
	}
	return out
}

// lookup resolves an experiment id or alias (nil if unknown).
func lookup(id string) *experiment {
	id = strings.ToLower(id)
	for i := range experiments {
		e := &experiments[i]
		if e.id == id {
			return e
		}
		for _, a := range e.aliases {
			if a == id {
				return e
			}
		}
	}
	return nil
}

// All runs every experiment in paper order, seeded ones at seed 1.
func All() []*Report {
	var out []*Report
	for _, e := range experiments {
		out = append(out, ByID(e.id))
	}
	return out
}

// ByID returns the named experiment (nil if unknown), seeded ones at
// seed 1.
func ByID(id string) *Report { return ByIDSeeded(id, 1) }

// ByIDSeeded runs an experiment by id or alias with an explicit
// fault/traffic-schedule seed where the experiment takes one (nil if
// unknown). It goes through the harness like every other run, so the
// report carries its snapshot and one-line summary — the digest, prose
// and artifact all come from the same capture.
func ByIDSeeded(id string, seed uint64) *Report {
	e := lookup(id)
	if e == nil {
		return nil
	}
	if e.seeded != nil {
		return runExperiment(func() *Report { return e.seeded(seed) })
	}
	return runExperiment(e.fn)
}

// IDs lists the experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	sort.Strings(ids)
	return ids
}

// built tracks every cluster an experiment constructs, so the harness
// can merge their registries into the report's snapshot. The bench
// package runs experiments sequentially (like the simulator, it is
// single-threaded by design).
var built []*cluster.Cluster

// newCluster is cluster.New plus harness tracking.
func newCluster(cfg cluster.Config) *cluster.Cluster {
	c := cluster.New(cfg)
	built = append(built, c)
	return c
}

// runExperiment runs one constructor and captures the merged metrics
// snapshot of every cluster it built.
func runExperiment(fn func() *Report) *Report {
	built = nil
	r := fn()
	capture(r)
	built = nil
	return r
}

// capture merges the tracked clusters' registries into the report (if
// the experiment did not attach a snapshot itself) and derives the
// one-line summary.
func capture(r *Report) {
	if r == nil {
		return
	}
	if r.Snap == nil {
		snaps := make([]*obs.Snapshot, 0, len(built))
		for _, c := range built {
			snaps = append(snaps, c.Obs.Snapshot(c.Env.Now()))
		}
		r.Snap = obs.Merge(snaps...)
	}
	if r.Flight == nil {
		for _, c := range built {
			r.Flight = append(r.Flight, c.Obs.Rec.Events()...)
		}
	}
	if r.Summary == "" {
		r.Summary = summaryLine(r.Snap)
	}
}

// summaryLine renders the one-line metrics digest printed after every
// benchmark: message and retransmit totals plus latency quantiles from
// the merged end-to-end histogram.
func summaryLine(s *obs.Snapshot) string {
	if s == nil {
		return "metrics: (none)"
	}
	h := s.MergedHist("nic", "msg_latency_ns")
	line := fmt.Sprintf("metrics: msgs=%d retransmits=%d",
		s.SumCounter("nic", "msgs_sent"), s.SumCounter("nic", "retransmits"))
	if h.Count > 0 {
		line += fmt.Sprintf(" p50=%.1fus p99=%.1fus p999=%.1fus",
			float64(h.P50())/1000, float64(h.P99())/1000, float64(h.P999())/1000)
	}
	return line
}

func us(t sim.Time) float64 { return float64(t) / 1000 }

// ------------------------------------------------------ BCL measurers

// bclRig is a 2-port BCL fixture.
type bclRig struct {
	c    *cluster.Cluster
	sys  *ibcl.System
	a, b *ibcl.Port
}

func newBCLRig(prof *hw.Profile, intra bool) *bclRig {
	nodes := 2
	nodeB := 1
	if intra {
		nodeB = 0
	}
	c := newCluster(cluster.Config{Nodes: nodes, Profile: prof, NIC: ibcl.DefaultNICConfig()})
	sys := ibcl.NewSystem(c)
	r := &bclRig{c: c, sys: sys}
	c.Env.Go("setup", func(p *sim.Proc) {
		pa := c.Nodes[0].Kernel.Spawn()
		pb := c.Nodes[nodeB].Kernel.Spawn()
		r.a, _ = sys.Open(p, c.Nodes[0], pa, ibcl.Options{SystemBuffers: 64})
		r.b, _ = sys.Open(p, c.Nodes[nodeB], pb, ibcl.Options{SystemBuffers: 64})
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	if r.a == nil || r.b == nil {
		panic("bench: BCL rig setup failed")
	}
	return r
}

// bclLatency measures warm one-way latency for size bytes on a normal
// channel with preposted (and re-posted) buffers.
func bclLatency(prof *hw.Profile, intra bool, size int) sim.Time {
	r := newBCLRig(prof, intra)
	const iters = 4
	bufN := size
	if bufN == 0 {
		bufN = 64
	}
	ch := r.b.CreateChannel()
	sendAt := make([]sim.Time, iters)
	var warm sim.Time
	r.c.Env.Go("recv", func(p *sim.Proc) {
		rva := r.b.Process().Space.Alloc(bufN)
		r.b.PostRecv(p, ch, rva, bufN)
		for i := 0; i < iters; i++ {
			r.b.WaitRecv(p)
			warm = p.Now() - sendAt[i]
			if i < iters-1 {
				r.b.PostRecv(p, ch, rva, bufN)
			}
		}
	})
	r.c.Env.Go("send", func(p *sim.Proc) {
		va := r.a.Process().Space.Alloc(bufN)
		p.Sleep(100 * sim.Microsecond)
		for i := 0; i < iters; i++ {
			sendAt[i] = p.Now()
			r.a.Send(p, r.b.Addr(), ch, va, size, 0)
			r.a.WaitSend(p)
			p.Sleep(300 * sim.Microsecond)
		}
	})
	r.c.Env.RunUntil(r.c.Env.Now() + sim.Second)
	return warm
}

// bclBandwidth measures streaming bandwidth in MB/s at the given
// message size.
func bclBandwidth(prof *hw.Profile, intra bool, size, msgs int) float64 {
	r := newBCLRig(prof, intra)
	var start, end sim.Time
	ready := false
	r.c.Env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			va := r.b.Process().Space.Alloc(size)
			r.b.PostRecv(p, i+1, va, size)
		}
		ready = true
		// The first message is warm-up: the clock starts when it has
		// fully arrived, so pin-table misses stay off the measurement.
		r.b.WaitRecv(p)
		start = p.Now()
		for i := 1; i < msgs; i++ {
			r.b.WaitRecv(p)
		}
		end = p.Now()
	})
	r.c.Env.Go("send", func(p *sim.Proc) {
		va := r.a.Process().Space.Alloc(size)
		for !ready {
			p.Sleep(50 * sim.Microsecond)
		}
		for i := 0; i < msgs; i++ {
			r.a.Send(p, r.b.Addr(), i+1, va, size, 0)
		}
		for i := 0; i < msgs; i++ {
			r.a.WaitSend(p)
		}
	})
	r.c.Env.RunUntil(r.c.Env.Now() + 10*sim.Second)
	if end <= start {
		return 0
	}
	return mbps((msgs-1)*size, end-start)
}

func mbps(bytes int, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (float64(d) / float64(sim.Second)) / 1e6
}

// bclPingPong measures RTT/2 with receive re-posting inside the loop —
// the Figure 7 methodology that exposes the full semi-user-level
// kernel cost (send trap + re-posting trap).
func bclPingPong(prof *hw.Profile, size int) sim.Time {
	r := newBCLRig(prof, false)
	const iters = 6
	bufN := size
	if bufN == 0 {
		bufN = 64
	}
	chA := r.a.CreateChannel()
	chB := r.b.CreateChannel()
	var rtt sim.Time
	r.c.Env.Go("a", func(p *sim.Proc) {
		va := r.a.Process().Space.Alloc(bufN)
		r.a.PostRecv(p, chA, va, bufN)
		p.Sleep(200 * sim.Microsecond)
		// Warm-up round.
		r.a.Send(p, r.b.Addr(), chB, va, size, 0)
		r.a.WaitRecv(p)
		r.a.PostRecv(p, chA, va, bufN)
		start := p.Now()
		for i := 0; i < iters; i++ {
			r.a.Send(p, r.b.Addr(), chB, va, size, 0)
			r.a.WaitRecv(p)
			r.a.PostRecv(p, chA, va, bufN)
		}
		rtt = (p.Now() - start) / iters
	})
	r.c.Env.Go("b", func(p *sim.Proc) {
		va := r.b.Process().Space.Alloc(bufN)
		r.b.PostRecv(p, chB, va, bufN)
		for i := 0; i < iters+1; i++ {
			r.b.WaitRecv(p)
			r.b.PostRecv(p, chB, va, bufN)
			r.b.Send(p, r.a.Addr(), chA, va, size, 0)
		}
	})
	r.c.Env.RunUntil(r.c.Env.Now() + sim.Second)
	return rtt / 2
}

// ------------------------------------------------------ ULC measurers

type ulcRig struct {
	c    *cluster.Cluster
	a, b *ulc.Port
}

func newULCRig(prof *hw.Profile, cfg func() (c cluster.Config)) *ulcRig {
	conf := cluster.Config{Nodes: 2, Profile: prof, NIC: ulc.NICConfig()}
	if cfg != nil {
		conf = cfg()
	}
	c := newCluster(conf)
	sys := ulc.NewSystem(c)
	r := &ulcRig{c: c}
	c.Env.Go("setup", func(p *sim.Proc) {
		r.a, _ = sys.Open(p, c.Nodes[0], c.Nodes[0].Kernel.Spawn(), 64)
		r.b, _ = sys.Open(p, c.Nodes[1], c.Nodes[1].Kernel.Spawn(), 64)
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	if r.a == nil || r.b == nil {
		panic("bench: ULC rig setup failed")
	}
	return r
}

// ulcPingPong mirrors bclPingPong on the user-level library.
func ulcPingPong(prof *hw.Profile, size int) sim.Time {
	r := newULCRig(prof, nil)
	const iters = 6
	bufN := size
	if bufN == 0 {
		bufN = 64
	}
	chA := r.a.CreateChannel()
	chB := r.b.CreateChannel()
	var rtt sim.Time
	r.c.Env.Go("a", func(p *sim.Proc) {
		va := r.a.Process().Space.Alloc(bufN)
		r.a.Register(p, va, bufN)
		r.a.PostRecv(p, chA, va, bufN)
		p.Sleep(200 * sim.Microsecond)
		r.a.Send(p, r.b.Addr(), chB, va, size, 0)
		r.a.WaitRecv(p)
		r.a.PostRecv(p, chA, va, bufN)
		start := p.Now()
		for i := 0; i < iters; i++ {
			r.a.Send(p, r.b.Addr(), chB, va, size, 0)
			r.a.WaitRecv(p)
			r.a.PostRecv(p, chA, va, bufN)
		}
		rtt = (p.Now() - start) / iters
	})
	r.c.Env.Go("b", func(p *sim.Proc) {
		va := r.b.Process().Space.Alloc(bufN)
		r.b.Register(p, va, bufN)
		r.b.PostRecv(p, chB, va, bufN)
		for i := 0; i < iters+1; i++ {
			r.b.WaitRecv(p)
			r.b.PostRecv(p, chB, va, bufN)
			r.b.Send(p, r.a.Addr(), chA, va, size, 0)
		}
	})
	r.c.Env.RunUntil(r.c.Env.Now() + sim.Second)
	return rtt / 2
}

// ulcLatency is the warm one-way measurement on the user-level port.
func ulcLatency(prof *hw.Profile, size int, nicCfg func() cluster.Config) sim.Time {
	r := newULCRig(prof, nicCfg)
	const iters = 4
	bufN := size
	if bufN == 0 {
		bufN = 64
	}
	ch := r.b.CreateChannel()
	sendAt := make([]sim.Time, iters)
	var warm sim.Time
	r.c.Env.Go("recv", func(p *sim.Proc) {
		rva := r.b.Process().Space.Alloc(bufN)
		r.b.Register(p, rva, bufN)
		r.b.PostRecv(p, ch, rva, bufN)
		for i := 0; i < iters; i++ {
			r.b.WaitRecv(p)
			warm = p.Now() - sendAt[i]
			if i < iters-1 {
				r.b.PostRecv(p, ch, rva, bufN)
			}
		}
	})
	r.c.Env.Go("send", func(p *sim.Proc) {
		va := r.a.Process().Space.Alloc(bufN)
		r.a.Register(p, va, bufN)
		p.Sleep(100 * sim.Microsecond)
		for i := 0; i < iters; i++ {
			sendAt[i] = p.Now()
			r.a.Send(p, r.b.Addr(), ch, va, size, 0)
			r.a.WaitSend(p)
			p.Sleep(300 * sim.Microsecond)
		}
	})
	r.c.Env.RunUntil(r.c.Env.Now() + sim.Second)
	return warm
}

// ulcBandwidth measures user-level streaming bandwidth.
func ulcBandwidth(prof *hw.Profile, size, msgs int, nicCfg func() cluster.Config) float64 {
	r := newULCRig(prof, nicCfg)
	var start, end sim.Time
	ready := false
	r.c.Env.Go("recv", func(p *sim.Proc) {
		va := r.b.Process().Space.Alloc(size)
		r.b.Register(p, va, size)
		for i := 0; i < msgs; i++ {
			r.b.PostRecv(p, i+1, va, size)
		}
		ready = true
		r.b.WaitRecv(p) // warm-up message
		start = p.Now()
		for i := 1; i < msgs; i++ {
			r.b.WaitRecv(p)
		}
		end = p.Now()
	})
	r.c.Env.Go("send", func(p *sim.Proc) {
		va := r.a.Process().Space.Alloc(size)
		r.a.Register(p, va, size)
		for !ready {
			p.Sleep(50 * sim.Microsecond)
		}
		for i := 0; i < msgs; i++ {
			r.a.Send(p, r.b.Addr(), i+1, va, size, 0)
		}
		for i := 0; i < msgs; i++ {
			r.a.WaitSend(p)
		}
	})
	r.c.Env.RunUntil(r.c.Env.Now() + 10*sim.Second)
	return mbps((msgs-1)*size, end-start)
}

// ------------------------------------------------------ KLC measurers

func klcLatency(prof *hw.Profile, size int) sim.Time {
	c := newCluster(cluster.Config{Nodes: 2, Profile: prof, NIC: klc.NICConfig()})
	sys := klc.NewSystem(c)
	var a, b *klc.Socket
	c.Env.Go("setup", func(p *sim.Proc) {
		a, _ = sys.Open(p, c.Nodes[0], c.Nodes[0].Kernel.Spawn())
		b, _ = sys.Open(p, c.Nodes[1], c.Nodes[1].Kernel.Spawn())
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	const iters = 4
	bufN := size
	if bufN == 0 {
		bufN = 64
	}
	sendAt := make([]sim.Time, iters)
	var warm sim.Time
	c.Env.Go("send", func(p *sim.Proc) {
		src := a.Space().Alloc(bufN)
		for i := 0; i < iters; i++ {
			sendAt[i] = p.Now()
			a.SendTo(p, b.Addr(), src, size)
			p.Sleep(500 * sim.Microsecond)
		}
	})
	c.Env.Go("recv", func(p *sim.Proc) {
		dst := b.Space().Alloc(bufN)
		for i := 0; i < iters; i++ {
			b.Recv(p, dst, bufN)
			warm = p.Now() - sendAt[i]
		}
	})
	c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
	return warm
}

func klcBandwidth(prof *hw.Profile, size, msgs int) float64 {
	c := newCluster(cluster.Config{Nodes: 2, Profile: prof, NIC: klc.NICConfig()})
	sys := klc.NewSystem(c)
	var a, b *klc.Socket
	c.Env.Go("setup", func(p *sim.Proc) {
		a, _ = sys.Open(p, c.Nodes[0], c.Nodes[0].Kernel.Spawn())
		b, _ = sys.Open(p, c.Nodes[1], c.Nodes[1].Kernel.Spawn())
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	var start, end sim.Time
	c.Env.Go("send", func(p *sim.Proc) {
		src := a.Space().Alloc(size)
		start = p.Now()
		for i := 0; i < msgs; i++ {
			a.SendTo(p, b.Addr(), src, size)
		}
	})
	c.Env.Go("recv", func(p *sim.Proc) {
		dst := b.Space().Alloc(size)
		for i := 0; i < msgs; i++ {
			b.Recv(p, dst, size)
		}
		end = p.Now()
	})
	c.Env.RunUntil(c.Env.Now() + 30*sim.Second)
	return mbps(msgs*size, end-start)
}

// ----------------------------------------------------- AMII measurers

func amiiPingPong(prof *hw.Profile, size int) sim.Time {
	c := newCluster(cluster.Config{Nodes: 2, Profile: prof, NIC: amii.NICConfig()})
	sys := amii.NewSystem(c)
	var a, b *amii.Endpoint
	c.Env.Go("setup", func(p *sim.Proc) {
		a, _ = sys.Open(p, c.Nodes[0], c.Nodes[0].Kernel.Spawn(), 8)
		b, _ = sys.Open(p, c.Nodes[1], c.Nodes[1].Kernel.Spawn(), 8)
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	const iters = 4
	var rtt sim.Time
	c.Env.Go("b", func(p *sim.Proc) {
		b.SetHandler(1, func(hp *sim.Proc, src amii.Addr, arg uint64, off int, data []byte) {
			b.Request(hp, src, 1, arg, data)
		})
		for {
			b.Poll(p)
		}
	})
	c.Env.Go("a", func(p *sim.Proc) {
		got := false
		a.SetHandler(1, func(hp *sim.Proc, src amii.Addr, arg uint64, off int, data []byte) {
			got = true
		})
		payload := make([]byte, size)
		ping := func() {
			got = false
			a.Request(p, b.Addr(), 1, 0, payload)
			for !got {
				a.Poll(p)
			}
		}
		ping()
		start := p.Now()
		for i := 0; i < iters; i++ {
			ping()
		}
		rtt = (p.Now() - start) / iters
	})
	c.Env.RunUntil(c.Env.Now() + sim.Second)
	return rtt / 2
}

func amiiBandwidth(prof *hw.Profile, total int) float64 {
	c := newCluster(cluster.Config{Nodes: 2, Profile: prof, NIC: amii.NICConfig()})
	sys := amii.NewSystem(c)
	var a, b *amii.Endpoint
	c.Env.Go("setup", func(p *sim.Proc) {
		a, _ = sys.Open(p, c.Nodes[0], c.Nodes[0].Kernel.Spawn(), 8)
		b, _ = sys.Open(p, c.Nodes[1], c.Nodes[1].Kernel.Spawn(), 8)
	})
	c.Env.RunUntil(20 * sim.Millisecond)
	received := 0
	var start, end sim.Time
	c.Env.Go("b", func(p *sim.Proc) {
		dst := b.Process().Space.Alloc(total)
		b.SetHandler(2, func(hp *sim.Proc, src amii.Addr, arg uint64, off int, data []byte) {
			b.Node().Memcpy(hp, len(data))
			b.Process().Space.Write(dst+mem.VAddr(off), data)
			received += len(data)
		})
		for received < total {
			b.Poll(p)
		}
		end = p.Now()
	})
	c.Env.Go("a", func(p *sim.Proc) {
		va := a.Process().Space.Alloc(total)
		start = p.Now()
		a.Bulk(p, b.Addr(), 2, 0, va, total)
	})
	c.Env.RunUntil(c.Env.Now() + 30*sim.Second)
	return mbps(total, end-start)
}

// ------------------------------------------------------ BIP measurers

func bipLatency(size int) sim.Time {
	return ulcLatencyWith(bip.Profile(), size, func() cluster.Config {
		return cluster.Config{Nodes: 2, Profile: bip.Profile(), NIC: bip.NICConfig()}
	})
}

func bipBandwidth(size, msgs int) float64 {
	return ulcBandwidth(bip.Profile(), size, msgs, func() cluster.Config {
		return cluster.Config{Nodes: 2, Profile: bip.Profile(), NIC: bip.NICConfig()}
	})
}

func ulcLatencyWith(prof *hw.Profile, size int, cfg func() cluster.Config) sim.Time {
	return ulcLatency(prof, size, cfg)
}

// ------------------------------------------------------ MPI/PVM rigs

func mpiJob(prof *hw.Profile, intra bool) (*cluster.Cluster, [2]*mpi.Comm) {
	nodes := 2
	nodeB := 1
	if intra {
		nodeB = 0
	}
	c := newCluster(cluster.Config{Nodes: nodes, Profile: prof, NIC: ibcl.DefaultNICConfig()})
	sys := ibcl.NewSystem(c)
	var ports [2]*ibcl.Port
	c.Env.Go("setup", func(p *sim.Proc) {
		ports[0], _ = sys.Open(p, c.Nodes[0], c.Nodes[0].Kernel.Spawn(), ibcl.Options{SystemBuffers: 64, SystemBufSize: eadi.EagerLimit})
		ports[1], _ = sys.Open(p, c.Nodes[nodeB], c.Nodes[nodeB].Kernel.Spawn(), ibcl.Options{SystemBuffers: 64, SystemBufSize: eadi.EagerLimit})
	})
	c.Env.RunUntil(50 * sim.Millisecond)
	addrs := []ibcl.Addr{ports[0].Addr(), ports[1].Addr()}
	return c, [2]*mpi.Comm{
		mpi.World(eadi.NewDevice(ports[0], 0, addrs)),
		mpi.World(eadi.NewDevice(ports[1], 1, addrs)),
	}
}

func mpiLatency(prof *hw.Profile, intra bool) sim.Time {
	c, comms := mpiJob(prof, intra)
	const iters = 8
	var rtt sim.Time
	c.Env.Go("r0", func(p *sim.Proc) {
		s := comms[0].Device().Port().Process().Space.Alloc(8)
		r := comms[0].Device().Port().Process().Space.Alloc(8)
		comms[0].Send(p, s, 1, 1, 0)
		comms[0].Recv(p, r, 8, 1, 0)
		start := p.Now()
		for i := 0; i < iters; i++ {
			comms[0].Send(p, s, 1, 1, 0)
			comms[0].Recv(p, r, 8, 1, 0)
		}
		rtt = (p.Now() - start) / iters
	})
	c.Env.Go("r1", func(p *sim.Proc) {
		s := comms[1].Device().Port().Process().Space.Alloc(8)
		r := comms[1].Device().Port().Process().Space.Alloc(8)
		for i := 0; i < iters+1; i++ {
			comms[1].Recv(p, r, 8, 0, 0)
			comms[1].Send(p, s, 1, 0, 0)
		}
	})
	c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
	return rtt / 2
}

func mpiBandwidth(prof *hw.Profile, intra bool, size, msgs int) float64 {
	c, comms := mpiJob(prof, intra)
	var start, end sim.Time
	c.Env.Go("r0", func(p *sim.Proc) {
		va := comms[0].Device().Port().Process().Space.Alloc(size)
		comms[0].Send(p, va, size, 1, 0)
		start = p.Now()
		for i := 0; i < msgs; i++ {
			comms[0].Send(p, va, size, 1, 0)
		}
	})
	c.Env.Go("r1", func(p *sim.Proc) {
		va := comms[1].Device().Port().Process().Space.Alloc(size)
		comms[1].Recv(p, va, size, 0, 0)
		for i := 0; i < msgs; i++ {
			comms[1].Recv(p, va, size, 0, 0)
		}
		end = p.Now()
	})
	c.Env.RunUntil(c.Env.Now() + 30*sim.Second)
	return mbps(msgs*size, end-start)
}

func pvmJob(prof *hw.Profile, intra bool) (*cluster.Cluster, [2]*pvm.Task) {
	nodes := 2
	nodeB := 1
	if intra {
		nodeB = 0
	}
	c := newCluster(cluster.Config{Nodes: nodes, Profile: prof, NIC: ibcl.DefaultNICConfig()})
	sys := ibcl.NewSystem(c)
	var ports [2]*ibcl.Port
	c.Env.Go("setup", func(p *sim.Proc) {
		ports[0], _ = sys.Open(p, c.Nodes[0], c.Nodes[0].Kernel.Spawn(), ibcl.Options{SystemBuffers: 64, SystemBufSize: eadi.EagerLimit})
		ports[1], _ = sys.Open(p, c.Nodes[nodeB], c.Nodes[nodeB].Kernel.Spawn(), ibcl.Options{SystemBuffers: 64, SystemBufSize: eadi.EagerLimit})
	})
	c.Env.RunUntil(50 * sim.Millisecond)
	addrs := []ibcl.Addr{ports[0].Addr(), ports[1].Addr()}
	return c, [2]*pvm.Task{
		pvm.NewTask(eadi.NewDevice(ports[0], 0, addrs)),
		pvm.NewTask(eadi.NewDevice(ports[1], 1, addrs)),
	}
}

func pvmLatency(prof *hw.Profile, intra bool) sim.Time {
	c, tasks := pvmJob(prof, intra)
	const iters = 8
	var rtt sim.Time
	c.Env.Go("t0", func(p *sim.Proc) {
		ping := func() {
			tasks[0].InitSend(pvm.DataRaw).PackInt64(1)
			tasks[0].Send(p, pvm.Tid(1), 0)
			tasks[0].Recv(p, pvm.Tid(1), 0)
		}
		ping()
		start := p.Now()
		for i := 0; i < iters; i++ {
			ping()
		}
		rtt = (p.Now() - start) / iters
	})
	c.Env.Go("t1", func(p *sim.Proc) {
		for i := 0; i < iters+1; i++ {
			tasks[1].Recv(p, pvm.Tid(0), 0)
			tasks[1].InitSend(pvm.DataRaw).PackInt64(1)
			tasks[1].Send(p, pvm.Tid(0), 0)
		}
	})
	c.Env.RunUntil(c.Env.Now() + 10*sim.Second)
	return rtt / 2
}

func pvmBandwidth(prof *hw.Profile, intra bool, size, msgs int) float64 {
	c, tasks := pvmJob(prof, intra)
	var start, end sim.Time
	c.Env.Go("t0", func(p *sim.Proc) {
		va := tasks[0].Device().Port().Process().Space.Alloc(size)
		send := func() {
			tasks[0].InitSend(pvm.DataInPlace)
			tasks[0].SetInPlace(va, size)
			tasks[0].Send(p, pvm.Tid(1), 0)
		}
		send()
		start = p.Now()
		for i := 0; i < msgs; i++ {
			send()
		}
	})
	c.Env.Go("t1", func(p *sim.Proc) {
		va := tasks[1].Device().Port().Process().Space.Alloc(size)
		tasks[1].RecvInto(p, pvm.Tid(0), 0, va, size)
		for i := 0; i < msgs; i++ {
			tasks[1].RecvInto(p, pvm.Tid(0), 0, va, size)
		}
		end = p.Now()
	})
	c.Env.RunUntil(c.Env.Now() + 30*sim.Second)
	return mbps(msgs*size, end-start)
}
