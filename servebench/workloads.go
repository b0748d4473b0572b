package main

import (
	"math"
	"time"
)

// serveSpec configures the server process. It travels to the child as
// JSON, so the server receives only the generated configuration and
// never a workload name.
type serveSpec struct {
	// APs > 1 serves from a cluster.Cluster; 1 is a bare engine.Engine.
	APs      int `json:"aps"`
	Channels int `json:"channels"`
	// Interference is the uniform pairwise co-channel erasure
	// probability between clustered APs.
	Interference float64 `json:"interference"`
	STAs         int     `json:"stas"`
	QueueCap     int     `json:"queue_cap"`
	Workers      int     `json:"workers"`
	Shards       int     `json:"shards"`
	// GOMAXPROCS is pinned in the server's environment.
	GOMAXPROCS int  `json:"gomaxprocs"`
	Pace       bool `json:"pace"`
	// PHY selects the transport carpoold -phy builds: PHYTransport with
	// hard-decision FEC, retained payloads and the 4095 B aggregate cap.
	PHY  bool  `json:"phy"`
	Seed int64 `json:"seed"`
	// Trace turns on the timing wrappers and lifecycle sampling.
	Trace bool `json:"trace"`
}

// loadSpec configures the load generator (this process).
type loadSpec struct {
	FrameBytes int
	// Payload sends RecData records with real bytes; off sends size-only
	// RecDataSize records.
	Payload bool
	// Rate is the open-loop Poisson rate in frames/s, offered for the
	// length of a round. Zero offers Batch frames at once and drains them.
	Rate  float64
	Batch int
	// RoundSeconds is the length of one round: an untraced run serves one
	// round per RoundSeconds of --seconds, each from a fresh server.
	RoundSeconds float64
	// WriteEvery is the least gap between open-loop writes: the records
	// due in it leave in one write.
	WriteEvery time.Duration
	// RoamRate is the seeded roam-event rate (events/s) on a cluster.
	RoamRate float64
	// Subscribe opens a second connection that streams telemetry for the
	// whole run and must reconcile with the drain reply.
	Subscribe bool
}

type workload struct {
	name  string
	serve serveSpec
	load  loadSpec
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json states why
// each was chosen. Each pins Workers, AdmissionShards and the server's
// GOMAXPROCS so that the host's core count changes speed, never plan
// shape. Load comes from one process with at most two connections,
// which fits a two-core host.
var workloads = []workload{
	{
		// Per-frame software cost is everything and the PHY is idle. A
		// write every 5 ms carries about a thousand frames, and the time
		// the worker takes to work through one sets the latency up to
		// its 99th percentile. On a shared two-core VM the host stalls
		// the server for a millisecond or more on about 1% of frames:
		// with 1 ms writes the run's p99 sat on that tail and ranged
		// from 0.3 to 2.7 ms between runs (0.5 to 8 ms at 400k frames/s).
		// At 200k frames/s the server spends about 0.6 µs of CPU per
		// frame, an eighth of one core.
		name:  "oracle-small",
		serve: serveSpec{APs: 1, STAs: 64, QueueCap: 4096, Workers: 1, Shards: 1, GOMAXPROCS: 2},
		load: loadSpec{FrameBytes: 128, Rate: 200_000, WriteEvery: 5 * time.Millisecond,
			RoundSeconds: 4},
	},
	{
		// Pacing makes plan shape independent of CPU speed. 5k frames/s
		// keeps every AP's air occupancy near a third once the roams have
		// levelled the stations. At 8k frames/s (55%) the paced engine
		// was bistable here: a pacing timer under a millisecond waits for
		// the runtime's millisecond poll when the process is idle, plans
		// grow past a millisecond of air, and 200 ms stretches of one run
		// split between a p50 of 1.2 and of 2.0 ms. Full co-channel interference gives
		// about 1% retries: the live model erases only deliveries that
		// overlap in time. Writes every 100 µs keep the pacing timers'
		// wake-ups steady from run to run.
		name: "cluster-paced",
		serve: serveSpec{APs: 4, Channels: 2, Interference: 1, STAs: 64, QueueCap: 4096,
			Workers: 1, Shards: 1, GOMAXPROCS: 2, Pace: true},
		load: loadSpec{FrameBytes: 1200, Payload: true, Rate: 5000,
			WriteEvery: 100 * time.Microsecond, RoamRate: 20, Subscribe: true, RoundSeconds: 4},
	},
	{
		// The PHY is nearly all the CPU. A 2000-frame batch drains in
		// about five seconds here, inside the latency histogram's 10 s
		// top bucket.
		name: "phy-drain",
		serve: serveSpec{APs: 1, STAs: 8, QueueCap: 4096, Workers: 2, Shards: 1, GOMAXPROCS: 2,
			PHY: true},
		load: loadSpec{FrameBytes: 1400, Payload: true, Batch: 2000, RoundSeconds: 5},
	},
}

// rounds is how many served passes an untraced run makes.
func (l loadSpec) rounds(seconds float64) int {
	return max(1, int(math.Round(seconds/l.RoundSeconds)))
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one reported metric. moves names the end-to-end metrics a
// per-layer metric should move and on which workloads, as predicted
// before any optimisation lands; later changes cite these pairings.
type metricDef struct {
	name  string
	unit  string
	moves string
}

// endToEnd are the untraced run's metrics, printed on every workload.
// The failure share is carried by the result's attempted and failed
// counts: it is zero on every workload, and a zero metric has no spread.
var endToEnd = []metricDef{
	{name: "delivered_fps", unit: "frames/s"},
	{name: "cpu_ns_per_frame", unit: "ns"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p99_ms", unit: "ms"},
	{name: "airtime_goodput_mbps", unit: "Mbit/s"},
	{name: "byte_fairness", unit: "1"},
	{name: "peak_rss_mb", unit: "MiB"},
	{name: "setup_s", unit: "s"},
}

// perLayer are the traced run's metrics. A layer the workload does not
// run (PHY on the oracle workloads, roaming off the cluster) reads 0.
// The admission timer reads as engine.admit_ns_per_frame on a bare
// engine and as cluster.admit_ns_per_frame on a cluster.
var perLayer = []metricDef{
	{"wire.ns_per_record", "ns", "cpu_ns_per_frame on oracle-small; nothing on phy-drain"},
	{"wire.bytes_per_record", "B", "cpu_ns_per_frame on oracle-small; nothing on phy-drain"},
	{"engine.admit_ns_per_frame", "ns", "cpu_ns_per_frame and latency_p50_ms on oracle-small; 0 on a cluster"},
	{"engine.admit_items_per_call", "count", "cpu_ns_per_frame and latency_p50_ms on oracle-small"},
	{"engine.rejected_share", "1", "cpu_ns_per_frame and latency_p50_ms on oracle-small"},
	{"engine.plan_ns_per_tx", "ns", "cpu_ns_per_frame on oracle-small"},
	{"engine.settle_ns_per_tx", "ns", "cpu_ns_per_frame on oracle-small"},
	{"engine.subframes_per_tx", "count", "airtime_goodput_mbps on cluster-paced and phy-drain; diagnostic on oracle-small"},
	{"engine.frames_per_tx", "count", "airtime_goodput_mbps on cluster-paced and phy-drain; diagnostic on oracle-small"},
	{"engine.retries_per_delivered", "1", "airtime_goodput_mbps on cluster-paced and phy-drain"},
	{"engine.stage.queue_wait_p50_ms", "ms", "latency_p50_ms and latency_p99_ms on cluster-paced"},
	{"engine.stage.backoff_p50_ms", "ms", "latency_p50_ms and latency_p99_ms on cluster-paced"},
	{"engine.stage.air_p50_ms", "ms", "latency_p50_ms and latency_p99_ms on cluster-paced"},
	{"engine.stage.decode_p50_ms", "ms", "latency_p50_ms and latency_p99_ms on cluster-paced"},
	{"engine.transport_ns_per_tx", "ns", "delivered_fps and cpu_ns_per_frame on phy-drain; nothing on oracle-small"},
	{"engine.subframe_ok_ratio", "1", "delivered_fps and cpu_ns_per_frame on phy-drain; nothing on oracle-small"},
	{"core.build_ns_per_tx", "ns", "delivered_fps and cpu_ns_per_frame on phy-drain"},
	{"faults.channel_ns_per_tx", "ns", "delivered_fps and cpu_ns_per_frame on phy-drain"},
	{"phy.sync_ns_per_rx", "ns", "delivered_fps and cpu_ns_per_frame on phy-drain"},
	{"phy.demod_ns_per_subframe", "ns", "delivered_fps and cpu_ns_per_frame on phy-drain"},
	{"fec.viterbi_ns_per_subframe", "ns", "delivered_fps and cpu_ns_per_frame on phy-drain"},
	{"core.receive_ns_per_rx", "ns", "delivered_fps and cpu_ns_per_frame on phy-drain"},
	{"phy.rx_ok_ratio", "1", "delivered_fps and cpu_ns_per_frame on phy-drain"},
	{"cluster.admit_ns_per_frame", "ns", "latency_p99_ms on cluster-paced; 0 on a bare engine"},
	{"cluster.roam_ns_p50", "ns", "latency_p99_ms on cluster-paced"},
	{"cluster.roam_ns_max", "ns", "latency_p99_ms on cluster-paced"},
	{"cluster.roams", "count", "latency_p99_ms on cluster-paced"},
	{"cluster.roam_errors", "count", "latency_p99_ms on cluster-paced"},
	{"cluster.ap_busy_share_max", "1", "latency_p99_ms on cluster-paced"},
	{"obs.stats_ns", "ns", "cpu_ns_per_frame on cluster-paced"},
	{"obs.telemetry_updates", "count", "cpu_ns_per_frame on cluster-paced"},
	{"loadgen.lag_p99_ms", "ms", "none: a run whose generator fell behind is invalid"},
	{"trace.overhead_share", "1", "none: traced over untraced cpu_ns_per_frame, minus one"},
	{"unattributed_ns_per_frame", "ns", "none: cpu_ns_per_frame minus the attributed layers (signed; wall-timed layers can exceed CPU)"},
}
