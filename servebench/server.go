package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"carpool/internal/cluster"
	"carpool/internal/engine"
	"carpool/internal/obs"
	"carpool/internal/phy"
)

// serverReport is what the server process prints when its stdin closes.
type serverReport struct {
	Drained bool `json:"drained"`
	// CPUNs is the process's user+sys CPU from listening to the end of
	// the drain; MaxRSSKiB its peak resident set at the end of the drain.
	CPUNs     int64 `json:"cpu_ns"`
	MaxRSSKiB int64 `json:"max_rss_kib"`
	// Hists are the engine registry's latency histograms: engine.latency_ms
	// always, the engine.stage.* set when sampling is on.
	Hists map[string]obs.HistogramSnapshot `json:"hists"`
	// APBusyShareMax is the largest per-AP air occupancy over elapsed time
	// at the end of the drain (the engine itself when there is one AP).
	APBusyShareMax float64 `json:"ap_busy_share_max"`
	// Roams and RoamErrors count the roam requests that succeeded and
	// failed; the times are those of the successful ones.
	Roams      int64   `json:"roams"`
	RoamErrors int64   `json:"roam_errors"`
	RoamNsP50  float64 `json:"roam_ns_p50"`
	RoamNsMax  float64 `json:"roam_ns_max"`
	// TelemetryCalls counts the telemetry updates the server pushed.
	TelemetryCalls int64 `json:"telemetry_calls"`

	// The rest is filled only by a traced server.
	AdmitCalls    int64   `json:"admit_calls"`
	AdmitItems    int64   `json:"admit_items"`
	AdmitAccepted int64   `json:"admit_accepted"`
	AdmitNs       int64   `json:"admit_ns"`
	StatsNs       float64 `json:"stats_ns"`
	TxCalls       int64   `json:"tx_calls"`
	TxNs          int64   `json:"tx_ns"`
	TxSubframes   int64   `json:"tx_subframes"`
	TxOK          int64   `json:"tx_ok"`
}

const latencyHist = "engine.latency_ms"

// sampleEvery is the traced server's lifecycle sampling rate.
const sampleEvery = 16

// lifecycle is the part of the engine and cluster surface the server
// process manages itself.
type lifecycle interface {
	engine.ServerBackend
	Start(ctx context.Context) error
	Close()
}

// serveMain is the server process: it builds the backend the spec
// describes, serves it on a loopback port it announces as "READY
// <addr>", and when its stdin closes prints one serverReport line.
func serveMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: servebench serve <spec-json>")
		return 2
	}
	var spec serveSpec
	if err := json.Unmarshal([]byte(args[0]), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "servebench serve: bad spec: %v\n", err)
		return 2
	}
	if err := serve(spec, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "servebench serve: %v\n", err)
		return 1
	}
	return 0
}

func serve(spec serveSpec, stop io.Reader, out io.Writer) error {
	reg := obs.NewRegistry()
	cfg := engineConfig(spec, &obs.Sink{Registry: reg})
	var tt *timedTransport
	if spec.Trace {
		tt = &timedTransport{inner: cfg.Transport}
		cfg.Transport = tt
		cfg.SampleEvery = sampleEvery
	}
	var (
		inner lifecycle
		cl    *cluster.Cluster
	)
	if spec.APs > 1 {
		ccfg := cluster.Config{APs: spec.APs, Channels: spec.Channels,
			InterferenceSeed: spec.Seed, Engine: cfg}
		if spec.Interference > 0 {
			ccfg.Interference = cluster.Uniform(spec.APs, spec.Interference)
		}
		c, err := cluster.New(ccfg)
		if err != nil {
			return err
		}
		inner, cl = c, c
	} else {
		e, err := engine.New(cfg)
		if err != nil {
			return err
		}
		inner = e
	}
	b := &backend{ServerBackend: inner, cluster: cl, trace: spec.Trace}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if err := inner.Start(ctx); err != nil {
		ln.Close()
		return err
	}
	b.readyCPU, _ = usage()
	srv := engine.NewServerFor(b)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	if _, err := fmt.Fprintf(out, "READY %s\n", ln.Addr()); err != nil {
		return err
	}

	_, _ = io.Copy(io.Discard, stop) // the client closes our stdin when it is done
	cancel()
	serr := <-served
	inner.Close()
	if serr != nil {
		return serr
	}

	rep := b.report()
	snap := reg.Snapshot()
	rep.Hists = map[string]obs.HistogramSnapshot{}
	for name, h := range snap.Histograms {
		if name == latencyHist || (spec.Trace && strings.HasPrefix(name, "engine.stage.")) {
			rep.Hists[name] = h
		}
	}
	if spec.Trace {
		rep.StatsNs = statsCost(inner)
		rep.TxCalls, rep.TxNs = tt.calls.Load(), tt.ns.Load()
		rep.TxSubframes, rep.TxOK = tt.subs.Load(), tt.ok.Load()
	}
	return json.NewEncoder(out).Encode(rep)
}

// engineConfig is the engine (or per-AP template) configuration of a
// spec, with the engine's metric registry on so that the latency
// histogram's bucket counts are exported.
func engineConfig(spec serveSpec, sink *obs.Sink) engine.Config {
	cfg := engine.Config{
		NumSTAs:         spec.STAs,
		QueueCap:        spec.QueueCap,
		Workers:         spec.Workers,
		AdmissionShards: spec.Shards,
		PaceAirtime:     spec.Pace,
		Obs:             sink,
		Transport:       &engine.OracleTransport{},
	}
	if spec.PHY {
		// What carpoold -phy builds: hard-decision FEC, no impairments,
		// and the 12-bit PLCP LENGTH cap on the aggregate.
		cfg.Transport = &engine.PHYTransport{Seed: spec.Seed}
		cfg.RetainPayloads = true
		cfg.MaxAggBytes = phy.MaxPayloadBytes
	}
	return cfg
}

// statsCost is the median wall time of one Stats call on the drained
// backend.
func statsCost(b engine.ServerBackend) float64 {
	ns := make([]float64, 65)
	for i := range ns {
		t0 := time.Now()
		_ = b.Stats()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ns)
}

// usage returns the process's user+sys CPU time and peak RSS. The peak
// is the VmHWM of /proc/self/status: getrusage's ru_maxrss survives exec
// and would report the load generator's RSS at fork time instead.
func usage() (cpuNs, maxRSSKiB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), peakRSSKiB()
}

func peakRSSKiB() int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kib
		}
	}
	return 0
}

// backend sits between engine.Server and the engine or cluster. It
// always records the CPU and RSS at the end of the drain, counts
// telemetry pushes, and counts and times roams; when traced it also
// times admission.
type backend struct {
	engine.ServerBackend
	cluster *cluster.Cluster // nil for a bare engine
	trace   bool

	readyCPU int64

	admitCalls, admitItems, admitAccepted, admitNs atomic.Int64
	telemetry                                      atomic.Int64

	mu        sync.Mutex
	roamNs    []float64
	roamErrs  int64
	drained   bool
	drainCPU  int64
	drainRSS  int64
	busyShare float64
}

func (b *backend) SubmitBatch(items []engine.BatchItem) (int, error) {
	if !b.trace {
		return b.ServerBackend.SubmitBatch(items)
	}
	t0 := time.Now()
	n, err := b.ServerBackend.SubmitBatch(items)
	b.admitNs.Add(time.Since(t0).Nanoseconds())
	b.admitCalls.Add(1)
	b.admitItems.Add(int64(len(items)))
	b.admitAccepted.Add(int64(n))
	return n, err
}

var errNoRoam = errors.New("servebench: backend cannot roam")

// Roam makes the wrapper an engine.Roamer; a bare engine refuses.
func (b *backend) Roam(sta, ap int) error {
	if b.cluster == nil {
		return errNoRoam
	}
	t0 := time.Now()
	err := b.cluster.Roam(sta, ap)
	d := float64(time.Since(t0).Nanoseconds())
	b.mu.Lock()
	if err != nil {
		b.roamErrs++
	} else {
		b.roamNs = append(b.roamNs, d)
	}
	b.mu.Unlock()
	return err
}

func (b *backend) Telemetry(seq uint64, prev engine.Stats, final bool) engine.TelemetryUpdate {
	b.telemetry.Add(1)
	return b.ServerBackend.Telemetry(seq, prev, final)
}

func (b *backend) Drain(ctx context.Context) error {
	err := b.ServerBackend.Drain(ctx)
	cpu, rss := usage()
	var share float64
	if b.cluster != nil {
		for _, st := range b.cluster.ClusterStats().PerAP {
			share = max(share, busyShare(st))
		}
	} else {
		share = busyShare(b.ServerBackend.Stats())
	}
	b.mu.Lock()
	if !b.drained {
		b.drained, b.drainCPU, b.drainRSS, b.busyShare = err == nil, cpu, rss, share
	}
	b.mu.Unlock()
	return err
}

func busyShare(st engine.Stats) float64 {
	if st.Elapsed <= 0 {
		return 0
	}
	return float64(st.AirtimeBusy) / float64(st.Elapsed)
}

func (b *backend) report() serverReport {
	b.mu.Lock()
	defer b.mu.Unlock()
	rep := serverReport{
		Drained:        b.drained,
		CPUNs:          b.drainCPU - b.readyCPU,
		MaxRSSKiB:      b.drainRSS,
		APBusyShareMax: b.busyShare,
		AdmitCalls:     b.admitCalls.Load(),
		AdmitItems:     b.admitItems.Load(),
		AdmitAccepted:  b.admitAccepted.Load(),
		AdmitNs:        b.admitNs.Load(),
		Roams:          int64(len(b.roamNs)),
		RoamErrors:     b.roamErrs,
		TelemetryCalls: b.telemetry.Load(),
	}
	if len(b.roamNs) > 0 {
		sort.Float64s(b.roamNs)
		rep.RoamNsP50 = median(b.roamNs)
		rep.RoamNsMax = b.roamNs[len(b.roamNs)-1]
	}
	return rep
}

// timedTransport times every Deliver call and counts subframe verdicts.
type timedTransport struct {
	inner               engine.Transport
	calls, ns, subs, ok atomic.Int64
}

func (t *timedTransport) Deliver(ctx context.Context, plan *engine.Plan) ([]bool, error) {
	t0 := time.Now()
	ok, err := t.inner.Deliver(ctx, plan)
	t.ns.Add(time.Since(t0).Nanoseconds())
	t.calls.Add(1)
	t.subs.Add(int64(len(plan.Subs)))
	n := 0
	for _, v := range ok {
		if v {
			n++
		}
	}
	t.ok.Add(int64(n))
	return ok, err
}

// median returns the middle value (mean of the two middle values) of
// xs, sorting it in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
