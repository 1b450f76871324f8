package bench

import (
	"strings"
	"testing"
)

// within asserts a metric falls inside [lo, hi].
func within(t *testing.T, r *Report, key string, lo, hi float64) {
	t.Helper()
	v, ok := r.Metrics[key]
	if !ok {
		t.Fatalf("%s: metric %q missing", r.ID, key)
	}
	if v < lo || v > hi {
		t.Errorf("%s: %s = %.2f, want [%.2f, %.2f]\n%s", r.ID, key, v, lo, hi, r.Text)
	}
}

func TestTable1Shape(t *testing.T) {
	r := Table1()
	within(t, r, "klc_traps_per_msg", 1.9, 2.1)      // one per send + one per recv
	within(t, r, "klc_interrupts_per_msg", 0.9, 1.5) // at least one per message
	within(t, r, "ulc_traps_per_msg", 0, 0.01)
	within(t, r, "bcl_traps_per_msg", 0.9, 1.1) // exactly the send trap
	within(t, r, "bcl_interrupts_per_msg", 0, 0.01)
}

func TestOverheadsMatchPaper(t *testing.T) {
	r := Overheads()
	within(t, r, "send_overhead_us", 6.5, 7.6)     // paper 7.04
	within(t, r, "complete_overhead_us", 0.7, 1.0) // paper 0.82
	within(t, r, "recv_overhead_us", 0.9, 1.2)     // paper 1.01
}

func TestFigure5Shape(t *testing.T) {
	r := Figure5()
	within(t, r, "host_send_total_us", 6.0, 7.6)
	// PIO fill is a large fraction of the host path.
	pio := r.Metrics["pio_fill_us"]
	host := r.Metrics["host_send_total_us"]
	if pio < 0.4*host {
		t.Errorf("PIO fill %.2f µs is less than 40%% of host path %.2f µs", pio, host)
	}
}

func TestFigure6Shape(t *testing.T) {
	r := Figure6()
	within(t, r, "host_recv_total_us", 0.9, 1.2) // paper 1.01
}

func TestFigure7Shape(t *testing.T) {
	r := Figure7()
	within(t, r, "oneway_us", 17, 20)  // paper 18.3
	within(t, r, "extra_pct", 15, 28)  // paper ~22%
	within(t, r, "extra_us", 2.8, 6.0) // paper 4.17
	if r.Metrics["semi_pp_us"] <= r.Metrics["user_pp_us"] {
		t.Error("semi-user not slower than user-level in ping-pong")
	}
}

func TestFigure8Shape(t *testing.T) {
	r := Figure8()
	within(t, r, "inter_0_us", 17, 20)   // paper 18.3
	within(t, r, "intra_0_us", 2.2, 3.3) // paper 2.7
	if r.Metrics["inter_128k_us"] < 800 {
		t.Error("128 KB latency implausibly low")
	}
}

func TestFigure9Shape(t *testing.T) {
	r := Figure9()
	within(t, r, "peak_inter_mbps", 135, 155) // paper 146
	within(t, r, "intra_128k_mbps", 340, 430) // paper 391
	if h := r.Metrics["half_bw_bytes"]; h <= 0 || h >= 4096 {
		t.Errorf("half-bandwidth at %v bytes, paper says < 4 KB", h)
	}
}

func TestTable2Shape(t *testing.T) {
	r := Table2()
	// Who wins: BIP < GM < BCL < AM-II < kernel-level on latency.
	bip := r.Metrics["bip_inter_us"]
	gm := r.Metrics["gm_inter_us"]
	bcl := r.Metrics["bcl_inter_us"]
	am := r.Metrics["amii_inter_us"]
	klc := r.Metrics["klc_inter_us"]
	if !(bip < gm && gm < bcl && bcl < am && am < klc) {
		t.Errorf("latency ordering broken: bip=%.1f gm=%.1f bcl=%.1f am=%.1f klc=%.1f",
			bip, gm, bcl, am, klc)
	}
	// Bandwidth: BCL ~= GM > BIP > kernel-level > AM-II.
	within(t, r, "bcl_bw_mbps", 135, 155)
	within(t, r, "gm_bw_mbps", 135, 155)
	within(t, r, "bip_bw_mbps", 110, 140)
	if r.Metrics["amii_bw_mbps"] >= r.Metrics["bip_bw_mbps"] {
		t.Error("AM-II bandwidth not clearly below the zero-copy protocols")
	}
	if r.Metrics["klc_bw_mbps"] >= r.Metrics["bcl_bw_mbps"] {
		t.Error("kernel-level bandwidth not below BCL")
	}
}

func TestTable3Shape(t *testing.T) {
	r := Table3()
	within(t, r, "mpi_inter_us", 20, 28)     // paper 23.7
	within(t, r, "mpi_intra_us", 5, 8.5)     // paper 6.3
	within(t, r, "mpi_inter_mbps", 120, 142) // paper 131
	within(t, r, "pvm_inter_us", 20, 30)     // paper 22.4
	within(t, r, "pvm_intra_us", 5, 10)      // paper 6.5
	within(t, r, "pvm_inter_mbps", 115, 145) // paper 131
}

func TestAblations(t *testing.T) {
	pio := AblationPIO()
	if pio.Metrics["lat_fastpio_us"] >= pio.Metrics["lat_base_us"] {
		t.Error("faster PIO did not reduce latency")
	}
	cpu := AblationCPU()
	if cpu.Metrics["extra_fastcpu_us"] >= cpu.Metrics["extra_base_us"] {
		t.Error("faster CPU did not shrink the semi-user penalty")
	}
	rel := AblationReliability()
	if rel.Metrics["raw_us"] >= rel.Metrics["reliable_us"] {
		t.Error("removing the reliability protocol did not cut latency")
	}
	kp := AblationKernelPath()
	semi, user := kp.Metrics["semi_128k_mbps"], kp.Metrics["user_128k_mbps"]
	if diff := (user - semi) / user; diff > 0.05 || diff < -0.05 {
		t.Errorf("bandwidth differs by %.1f%% at 128 KB; paper says it coincides", diff*100)
	}
	pl := AblationPipeline()
	if pl.Metrics["pipelined_us"] >= 0.7*pl.Metrics["storefwd_us"] {
		t.Error("pipelining did not clearly beat store-and-forward")
	}
}

func TestFabricsEquivalence(t *testing.T) {
	r := Fabrics()
	within(t, r, "myrinet_us", 17, 20)
	within(t, r, "mesh_us", 17, 21) // extra router hops
	within(t, r, "hetero_us", 17, 20)
	if r.Metrics["mesh_mbps"] < 135 || r.Metrics["myrinet_mbps"] < 135 {
		t.Error("a fabric fell below the link-limited plateau")
	}
}

func TestAblationWindow(t *testing.T) {
	r := AblationWindow()
	if r.Metrics["bw_w1_mbps"] >= 0.8*r.Metrics["bw_w32_mbps"] {
		t.Errorf("stop-and-wait (%0.1f) not clearly below windowed (%0.1f)",
			r.Metrics["bw_w1_mbps"], r.Metrics["bw_w32_mbps"])
	}
	if r.Metrics["bw_w4_mbps"] < 0.95*r.Metrics["bw_w32_mbps"] {
		t.Error("window 4 should already cover the bandwidth-delay product")
	}
}

func TestScaleLogarithmic(t *testing.T) {
	r := Scale()
	growth := r.Metrics["growth_ratio"]
	// 70/4 = 17.5x linear; logarithmic is ~3.1x. Anything under 8x is
	// clearly sublinear.
	if growth > 8 {
		t.Errorf("barrier grew %.1fx from 4 to 70 ranks: not logarithmic", growth)
	}
	if r.Metrics["barrier_70_us"] <= 0 {
		t.Error("70-rank barrier did not complete")
	}
}

func TestAblationIntraPath(t *testing.T) {
	r := AblationIntraPath()
	// The paper's §4.2 ordering: direct copy > shared memory >> NIC
	// loopback on bandwidth; BCL's choice (shm) close to direct copy.
	if !(r.Metrics["direct_bw_mbps"] >= r.Metrics["shm_bw_mbps"] &&
		r.Metrics["shm_bw_mbps"] > 2*r.Metrics["nic_bw_mbps"]) {
		t.Errorf("intra-path bandwidth ordering broken: %v", r.Metrics)
	}
	if !(r.Metrics["direct_lat_us"] < r.Metrics["shm_lat_us"] &&
		r.Metrics["shm_lat_us"] < r.Metrics["nic_lat_us"]) {
		t.Errorf("intra-path latency ordering broken: %v", r.Metrics)
	}
	// "Memory copy bandwidth is much higher than DMA bandwidth."
	if r.Metrics["shm_bw_mbps"] < 2.5*r.Metrics["nic_bw_mbps"] {
		t.Error("shm not clearly above the DMA loopback path")
	}
}

func TestByIDAndAll(t *testing.T) {
	for _, id := range IDs() {
		if ByID(id) == nil {
			t.Errorf("ByID(%q) = nil", id)
		}
	}
	if ByID("nope") != nil {
		t.Error("ByID accepted garbage")
	}
}

// An alias must honor -seed exactly like its primary id.
func TestSeededAliasHonorsSeed(t *testing.T) {
	r := ByIDSeeded("health", 3)
	if r == nil || !strings.Contains(r.Title, "seed 3") {
		t.Fatalf("ByIDSeeded(\"health\", 3) did not run seed 3")
	}
}
