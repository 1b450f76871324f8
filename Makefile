# Convenience targets for the BCL reproduction. Everything is plain
# `go` underneath; nothing here is required.

GO ?= go

.PHONY: all test race short bench experiments chaos survival collectives metrics profile multitenant healthwatch serve reqobs baseline check examples tools clean

all: test

test:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench . -benchmem -benchtime 1x .

# Regenerate every table and figure of the paper (EXPERIMENTS.md's
# "Full output" section is this, captured).
experiments:
	$(GO) run ./cmd/bclbench all

# Deterministic chaos soak: seeded outage schedule over a dual-rail
# cluster; the report runs the simulation twice and checks the digests
# match. Override the schedule with CHAOS_SEED=<n>.
CHAOS_SEED ?= 1
chaos:
	$(GO) run ./cmd/bclbench -seed $(CHAOS_SEED) chaos

# Survivable-NIC gauntlet: firmware crashes healed by the kernel
# watchdog (journal replay + epoch resync, exactly-once delivery),
# random bit corruption caught by the per-fragment CRC, and a gray
# slow-rail window where the adaptive RTO must beat fixed backoff on
# the P99.9 tail. Runs twice, digests must match. Override the crash
# schedule with SURVIVAL_SEED=<n>; the crash flow trace shows one
# message crossing a firmware reboot.
SURVIVAL_SEED ?= 1
survival:
	$(GO) run ./cmd/bclbench -seed $(SURVIVAL_SEED) survival
	$(GO) run ./cmd/bcltrace -crash

# NIC-offloaded collectives: host vs offload latency/trap table at
# 2-64 ranks, the seeded fault soak (run twice, digests must match),
# and the causal flow trace of one offloaded broadcast + barrier.
collectives:
	$(GO) run ./cmd/bclbench -seed $(CHAOS_SEED) collectives
	$(GO) run ./cmd/bcltrace -coll

# Metrics registry showcase: the metered ping-pong (registry snapshot
# in Prometheus text + JSON) and the causal flow trace of one message
# under a forced packet drop.
metrics:
	$(GO) run ./cmd/bclbench -metrics pingpong
	$(GO) run ./cmd/bcltrace -flow

# Virtual-time profiler: attribution table for one 8-byte eager send
# (exclusive per-(node, layer, phase) times, per-CPU busy/idle, host
# overlap) plus the LogP/LogGP parameters fitted from profiler spans.
profile:
	$(GO) run ./cmd/bcltrace -prof
	$(GO) run ./cmd/bclbench logp

# Multi-tenant cluster: the gang scheduler admits a latency-sensitive
# pingpong job next to a bandwidth hog, the kernel's endpoint ownership
# checks reject cross-tenant buffer/ring access, and weighted
# round-robin send arbitration bounds the pingpong tail.
multitenant:
	$(GO) run ./cmd/bclbench multitenant

# Cluster health engine: the healthwatch gauntlet (clean phase must
# fire zero alerts; the fault phase must fire crc-spike, watchdog-trip
# and rail-divergence at byte-identical virtual times across a double
# run), the bcltop replay of the fault phase, and the pretty-printed
# postmortem bundle of its first alert. Override the fault schedule
# with HEALTH_SEED=<n>.
HEALTH_SEED ?= 1
healthwatch:
	$(GO) run ./cmd/bclbench -seed $(HEALTH_SEED) healthwatch
	$(GO) run ./cmd/bclbench -seed $(HEALTH_SEED) -watch
	$(GO) run ./cmd/bcltrace -health

# Service tier: the sharded RPC/KV store with sessions, client caches
# and presumed-abort 2PC under an open-loop swarm of simulated users —
# baseline throughput/tail, QoS-vs-FIFO under a stream hog, and the
# seeded chaos phase (duplicates + link outage + firmware crash, run
# twice, digests must match), plus the causal flow trace of one
# cross-shard transaction. Override the fault schedule with
# SERVE_SEED=<n>.
SERVE_SEED ?= 1
serve:
	$(GO) run ./cmd/bclbench -seed $(SERVE_SEED) serve
	$(GO) run ./cmd/bcltrace -rpc

# Request-level observability: the reqobs gauntlet (tail-sampled
# request traces with forced retention of aborts/retransmits/SLO
# violations, histogram exemplars in the OpenMetrics dump, space-saving
# heavy-hitter sketches driving the hot-shard-divergence rule, and the
# deterministic slow-request log — every phase run twice, digests must
# match), the bcltop replay of the hot-key phase, and the ranked
# slow-request log of the chaos phase. Override the fault schedule
# with REQOBS_SEED=<n>.
REQOBS_SEED ?= 1
reqobs:
	$(GO) run ./cmd/bclbench -seed $(REQOBS_SEED) reqobs
	$(GO) run ./cmd/bclbench -seed $(REQOBS_SEED) -watch reqobs
	$(GO) run ./cmd/bcltrace -slow -seed $(REQOBS_SEED)

# Continuous benchmark gate. `make baseline` (re)writes
# baselines/BENCH_*.json from a fresh run of the gated experiments;
# `make check` reruns them and fails on any metric outside its
# tolerance band. CI runs `check` on every push.
baseline:
	$(GO) run ./cmd/bclbench -baseline

check:
	$(GO) run ./cmd/bclbench -check

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stencil
	$(GO) run ./examples/masterworker
	$(GO) run ./examples/rma
	$(GO) run ./examples/dsm

tools:
	$(GO) run ./cmd/bcltrace
	$(GO) run ./cmd/dawning -nodes 8 -ranks 8
	$(GO) run ./cmd/dawning -nodes 8 -ranks 8 -workload ring
	$(GO) run ./cmd/dawning -nodes 8 -ranks 8 -workload dsm -fabric mesh

clean:
	$(GO) clean ./...
