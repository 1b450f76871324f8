package bench

import (
	"fmt"

	ibcl "bcl/internal/bcl"
	"bcl/internal/cluster"
	"bcl/internal/nic"
	"bcl/internal/obs"
	"bcl/internal/sim"
)

// The soak is the workload the chaos, survival (phase A) and
// healthwatch gauntlets share: every node sends paced rounds of
// fixed-size messages to every other node while the experiment's
// fault schedule plays out. Senders treat EvSendFailed as a transient
// condition: they wait for the peer-health machine to re-admit the
// destination and resend, giving at-least-once delivery that the
// receivers deduplicate by message tag. Receivers verify every payload
// byte and fold arrivals into an order-dependent digest. Each
// experiment supplies only its cluster, sizes, timings and faults.

// soakConfig is one experiment's soak rig.
type soakConfig struct {
	name    string         // process-name prefix
	cluster cluster.Config // Nodes is the all-to-all width
	rounds  int
	size    int      // message bytes
	pace    sim.Time // sender sleep before each round
	horizon sim.Time // virtual run time once the ports are open
	// The metrics sampler snapshots the registry every sampleEvery and
	// keeps the last sampleRing snapshots.
	sampleEvery sim.Time
	sampleRing  int
	// faults arms the fault schedule (and any instrument the experiment
	// reads back) once the ports are open and the sampler runs; base is
	// the virtual time the traffic starts from.
	faults func(c *cluster.Cluster, base sim.Time)
}

// total is the number of distinct messages one run must deliver.
func (s soakConfig) total() int {
	return s.cluster.Nodes * (s.cluster.Nodes - 1) * s.rounds
}

// soakResult is what one soak run produces; c is the finished cluster,
// for each experiment's own readouts, and snap its final registry
// snapshot.
type soakResult struct {
	c          *cluster.Cluster
	snap       *obs.Snapshot
	digest     uint64
	delivered  int // distinct messages, after dedup
	duplicates int
	corrupt    int // payloads with a wrong byte or length
	resends    int
	recoveries int
	recSum     sim.Time
	recMax     sim.Time
	deadlocked bool
}

// splitmix64 advances *x and returns the next value of the schedule
// stream. The schedule has its own generator so it never perturbs the
// simulator's RNG draws.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chaosPattern is the deterministic payload byte for message (src,
// dst, round) at offset j — receivers re-derive it to verify
// integrity.
func chaosPattern(src, dst, round, j int) byte {
	return byte(src*7 + dst*13 + round*31 + j*3)
}

// chaosTag packs (src, dst, round) into a message tag.
func chaosTag(src, dst, round int) uint64 {
	return uint64(src)<<32 | uint64(round)<<8 | uint64(dst)
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// run executes one soak.
func (s soakConfig) run() *soakResult {
	n := s.cluster.Nodes
	c := newCluster(s.cluster)
	ports := openBCL(c, 20*sim.Millisecond, ibcl.Options{SystemBuffers: 64}, seq(n)...)
	c.Obs.StartSampler(c.Env, s.sampleEvery, s.sampleRing)
	if s.faults != nil {
		s.faults(c, c.Env.Now())
	}

	// Receivers: verify payload bytes, dedup by tag, fold arrivals
	// into a per-port order-dependent digest.
	res := &soakResult{c: c}
	digests := make([]uint64, n)
	expected := (n - 1) * s.rounds // per receiver, after dedup
	for i, pt := range ports {
		seen := make(map[uint64]bool)
		c.Env.Go(fmt.Sprintf("%s-rx%d", s.name, i), func(p *sim.Proc) {
			digests[i] = fnvOffset
			for len(seen) < expected {
				ev, ok := pt.TryRecv(p)
				if !ok {
					p.Sleep(200 * sim.Microsecond)
					continue
				}
				if seen[ev.Tag] {
					res.duplicates++ // ACK lost, sender resent: drop the copy
					continue
				}
				seen[ev.Tag] = true
				src := int(ev.Tag >> 32)
				round := int(ev.Tag >> 8 & 0xffffff)
				data, _ := pt.Process().Space.Read(ev.VA, ev.Len)
				sum := uint64(0)
				bad := ev.Len != s.size
				for j, bb := range data {
					if bb != chaosPattern(src, i, round, j) {
						bad = true
						break
					}
					sum += uint64(bb)
				}
				if bad {
					res.corrupt++
				}
				res.delivered++
				digests[i] = (digests[i] ^ ev.Tag) * fnvPrime
				digests[i] = (digests[i] ^ uint64(ev.Len)) * fnvPrime
				digests[i] = (digests[i] ^ sum) * fnvPrime
			}
		})
	}

	// Senders: all-to-all rounds with wait-for-recovery resend on
	// failure.
	sendersDone := 0
	for i, pt := range ports {
		c.Env.Go(fmt.Sprintf("%s-tx%d", s.name, i), func(p *sim.Proc) {
			va := pt.Process().Space.Alloc(s.size)
			buf := make([]byte, s.size)
			p.Sleep(sim.Time(i) * sim.Millisecond) // de-lockstep the senders
			for round := 0; round < s.rounds; round++ {
				// Pace the rounds so the soak spans the whole fault
				// schedule instead of finishing before it starts.
				p.Sleep(s.pace)
				for d := 1; d < n; d++ {
					dst := (i + d) % n
					for j := range buf {
						buf[j] = chaosPattern(i, dst, round, j)
					}
					pt.Process().Space.Write(va, buf)
					for {
						_, err := pt.Send(p, ports[dst].Addr(), ibcl.SystemChannel,
							va, s.size, chaosTag(i, dst, round))
						if err != nil {
							panic(err)
						}
						if pt.WaitSend(p).Type == nic.EvSendDone {
							break
						}
						// The peer is Dead. Wait for probe-driven
						// recovery, then resend (at-least-once).
						t0 := p.Now()
						for !pt.PeerHealthy(ports[dst].Addr().Node) {
							p.Sleep(500 * sim.Microsecond)
						}
						rec := p.Now() - t0
						res.recoveries++
						res.recSum += rec
						res.recMax = max(res.recMax, rec)
						res.resends++
					}
				}
			}
			sendersDone++
		})
	}

	c.Env.RunUntil(c.Env.Now() + s.horizon)
	res.deadlocked = sendersDone < n
	// Fold the per-port digests and run totals in fixed order.
	h := uint64(fnvOffset)
	for _, d := range digests {
		h = (h ^ d) * fnvPrime
	}
	h = (h ^ uint64(res.delivered)) * fnvPrime
	h = (h ^ uint64(res.duplicates)) * fnvPrime
	h = (h ^ uint64(res.corrupt)) * fnvPrime
	res.digest = h
	res.snap = c.Obs.Snapshot(c.Env.Now())
	return res
}

// twice runs a seeded experiment body two times and reports whether
// the runs agree on every field key picks out: the same-seed
// determinism every seeded gate asserts.
func twice[T any](run func() T, key func(T) any) (first, second T, same bool) {
	first, second = run(), run()
	return first, second, key(first) == key(second)
}
