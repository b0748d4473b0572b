// Command servebench is the repository's serving benchmark. It starts
// the serving stack (engine.Server over an engine.Engine or a
// cluster.Cluster) as a separate server process, drives it from this
// process with seeded wire records over loopback TCP, drains it, checks
// the accounting, and prints the end-to-end metrics. A traced run
// (--trace 1) serves the workload once untraced and once with timing
// wrappers, then replays the run's own inputs through each layer's
// public calls, and prints the per-layer metrics instead.
//
//	bash servebench/run.sh --workload oracle-small --seed 1 --seconds 10 --trace 0
//	bash servebench/run.sh compare <result.json> <result.json>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Each run also writes its
// result record, with the host fingerprint, under
// .bench_build/results/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			os.Exit(serveMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// setupReps is how many times a run starts the server to time set-up.
const setupReps = 5

// phyReplayPlans bounds the plans the PHY replay decodes.
const phyReplayPlans = 96

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a run's result as kept under .bench_build/results.
type record struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	Checks      []string    `json:"failed_checks"`
	Result      result      `json:"result"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured run length in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	cancel := withWatchdog(context.Background())
	defer cancel()
	defer killAllServers()

	fp := takeFingerprint(w)
	var (
		res    result
		checks []string
		err    error
	)
	if *trace == 1 {
		res, checks, err = runTraced(w, *seed, float64(*seconds))
	} else {
		res, checks, err = runEndToEnd(w, *seed, float64(*seconds))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	rec := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Fingerprint: fp, Checks: checks, Result: res}
	if err := saveRecord(rec); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: saving result record: %v\n", err)
	}
	printReport(rec)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// servedRun is one served pass with its checks and set-up times.
type servedRun struct {
	sc     schedule
	res    *passResult
	checks []string
	setups []float64
}

func servePass(spec serveSpec, l loadSpec, seed int64, seconds float64, reps int) (servedRun, error) {
	p, sc, setups, err := setUp(spec, l, seed, seconds, reps)
	if err != nil {
		return servedRun{}, err
	}
	res, err := runPass(p, sc, l, seed)
	if err != nil {
		return servedRun{}, err
	}
	return servedRun{sc: sc, res: res, checks: checkPass(res, sc, l, spec.APs), setups: setups}, nil
}

// outcome turns checked passes into the result's counts: attempted is
// the offered frames and failed the rejected, dropped and expired ones,
// or every offered frame when a check failed.
func outcome(runs ...servedRun) (result, []string) {
	res := result{Metrics: map[string]metric{}}
	var checks []string
	for _, r := range runs {
		st := r.res.drain
		res.Attempted += int64(r.sc.frames)
		res.Failed += st.Rejected + st.Dropped + st.Expired
		checks = append(checks, r.checks...)
	}
	res.Correct = len(checks) == 0
	if !res.Correct {
		res.Failed = res.Attempted
	}
	return res, checks
}

// runEndToEnd serves the workload untraced, one round per RoundSeconds
// of the run, each from a fresh server; each metric is the median over
// the rounds. A round's latency quantiles are those of every frame it
// delivered, from its whole latency histogram.
func runEndToEnd(w workload, seed int64, seconds float64) (result, []string, error) {
	spec := w.serve
	spec.Seed = seed
	rounds := w.load.rounds(seconds)
	var runs []servedRun
	var setups []float64
	for r := 0; r < rounds; r++ {
		reps := 1
		if r == 0 {
			reps = setupReps
		}
		run, err := servePass(spec, w.load, seed, seconds/float64(rounds), reps)
		if err != nil {
			return result{}, nil, err
		}
		runs = append(runs, run)
		setups = append(setups, run.setups...)
	}
	res, checks := outcome(runs...)
	if !res.Correct {
		return res, checks, nil // a failed run is never reported as a number
	}
	perRound := map[string][]float64{}
	for _, r := range runs {
		st, lat := r.res.drain, r.res.rep.Hists[latencyHist]
		for name, v := range map[string]float64{
			"delivered_fps":        r.res.deliveredFPS(),
			"cpu_ns_per_frame":     r.res.cpuNsPerFrame(),
			"latency_p50_ms":       histQuantile(lat, 0.50),
			"latency_p99_ms":       histQuantile(lat, 0.99),
			"airtime_goodput_mbps": st.AirtimeGoodputMbps,
			"byte_fairness":        st.ByteFairnessIndex,
			"peak_rss_mb":          float64(r.res.rep.MaxRSSKiB) / 1024,
		} {
			perRound[name] = append(perRound[name], v)
		}
	}
	perRound["setup_s"] = setups
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: median(perRound[m.name]), Unit: m.unit}
	}
	return res, nil, nil
}

// runTraced serves the workload untraced and then traced, each from a
// fresh server, and derives the per-layer metrics from the traced pass,
// its wrappers and the replays of its inputs.
func runTraced(w workload, seed int64, seconds float64) (result, []string, error) {
	spec := w.serve
	spec.Seed = seed
	plain, err := servePass(spec, w.load, seed, seconds, 1)
	if err != nil {
		return result{}, nil, err
	}
	spec.Trace = true
	traced, err := servePass(spec, w.load, seed, seconds, 1)
	if err != nil {
		return result{}, nil, err
	}
	res, checks := outcome(plain, traced)
	if !res.Correct {
		return res, checks, nil
	}
	tr, st, rep := traced.res, traced.res.drain, traced.res.rep
	// The counts are the traced pass's; the untraced one is the baseline
	// of the tracing overhead only.
	res.Attempted, res.Failed = int64(traced.sc.frames), st.Rejected+st.Dropped+st.Expired
	frames := float64(st.Delivered)
	tx := float64(st.Transmissions)
	wireNs, wireBytes, err := wireReplay(traced.sc, tr.chunkEnds, w.load, seed)
	if err != nil {
		return result{}, nil, err
	}
	keep := 0
	if spec.PHY {
		keep = phyReplayPlans
	}
	sr, err := stepperReplay(spec, traced.sc, w.load, seed, st, keep)
	if err != nil {
		return result{}, nil, err
	}
	var pr phyResult
	if spec.PHY {
		if pr, err = phyReplay(sr.plans, seed); err != nil {
			return result{}, nil, err
		}
	}

	// One timer wraps the backend's SubmitBatch: it is the engine's
	// admission on a bare engine and the cluster's on a cluster.
	admitNs := ratio(float64(rep.AdmitNs), float64(rep.AdmitItems))
	engineAdmit, clusterAdmit := admitNs, 0.0
	if spec.APs > 1 {
		engineAdmit, clusterAdmit = 0, admitNs
	}
	transportNs := ratio(float64(rep.TxNs), float64(rep.TxCalls))
	cpu := tr.cpuNsPerFrame()
	// Attributed cost per delivered frame: wire parse, admission, and the
	// worker's plan, delivery and settlement per transmission, plus the
	// Stats calls behind telemetry pushes and the drain reply.
	attributed := wireNs*float64(tr.sentRec+1)/frames + admitNs +
		(sr.planNs+sr.settleNs+transportNs)*tx/frames +
		rep.StatsNs*float64(rep.TelemetryCalls+1)/frames
	vals := map[string]float64{
		"wire.ns_per_record":             wireNs,
		"wire.bytes_per_record":          wireBytes,
		"engine.admit_ns_per_frame":      engineAdmit,
		"engine.admit_items_per_call":    ratio(float64(rep.AdmitItems), float64(rep.AdmitCalls)),
		"engine.rejected_share":          ratio(float64(rep.AdmitItems-rep.AdmitAccepted), float64(rep.AdmitItems)),
		"engine.plan_ns_per_tx":          sr.planNs,
		"engine.settle_ns_per_tx":        sr.settleNs,
		"engine.subframes_per_tx":        ratio(float64(st.Subframes), tx),
		"engine.frames_per_tx":           ratio(float64(st.Delivered+st.Retries), tx),
		"engine.retries_per_delivered":   ratio(float64(st.Retries), frames),
		"engine.stage.queue_wait_p50_ms": histQuantile(rep.Hists["engine.stage.queue_wait_ms"], 0.5),
		"engine.stage.backoff_p50_ms":    histQuantile(rep.Hists["engine.stage.backoff_ms"], 0.5),
		"engine.stage.air_p50_ms":        histQuantile(rep.Hists["engine.stage.air_ms"], 0.5),
		"engine.stage.decode_p50_ms":     histQuantile(rep.Hists["engine.stage.decode_ms"], 0.5),
		"engine.transport_ns_per_tx":     transportNs,
		"engine.subframe_ok_ratio":       ratio(float64(rep.TxOK), float64(rep.TxSubframes)),
		"core.build_ns_per_tx":           pr.buildNs,
		"faults.channel_ns_per_tx":       pr.channelNs,
		"phy.sync_ns_per_rx":             pr.syncNs,
		"phy.demod_ns_per_subframe":      pr.demodNs,
		"fec.viterbi_ns_per_subframe":    pr.viterbiNs,
		"core.receive_ns_per_rx":         pr.receiveNs,
		"phy.rx_ok_ratio":                pr.rxOK,
		"cluster.admit_ns_per_frame":     clusterAdmit,
		"cluster.roam_ns_p50":            rep.RoamNsP50,
		"cluster.roam_ns_max":            rep.RoamNsMax,
		"cluster.roams":                  float64(rep.Roams),
		"cluster.roam_errors":            float64(rep.RoamErrors),
		"cluster.ap_busy_share_max":      rep.APBusyShareMax,
		"obs.stats_ns":                   rep.StatsNs,
		"obs.telemetry_updates":          float64(rep.TelemetryCalls),
		"loadgen.lag_p99_ms":             float64(tr.lagP99.Nanoseconds()) / 1e6,
		"trace.overhead_share":           cpu/plain.res.cpuNsPerFrame() - 1,
		"unattributed_ns_per_frame":      cpu - attributed,
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res, nil, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func saveRecord(rec record) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if rec.Trace {
		mode = "traced"
	}
	name := fmt.Sprintf("%s-seed%d-%s-%s.json", rec.Workload, rec.Seed, mode,
		time.Now().UTC().Format("20060102T150405"))
	return os.WriteFile(filepath.Join(dir, name), append(doc, '\n'), 0o644)
}

// printReport prints the human-readable table that precedes the JSON
// line: the fingerprint, every metric with its unit, and the failures.
func printReport(rec record) {
	fp := rec.Fingerprint
	fmt.Printf("servebench %s seed=%d seconds=%d trace=%v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Printf("host: %s nproc=%d GOAMD64=%s %s commit=%s source=%.12s fft64=%.1fns\n",
		fp.CPUModel, fp.NProc, fp.GOAMD64, fp.GoVersion, fp.Commit, fp.SourceDigest, fp.FFT64Ns)
	fmt.Printf("server: GOMAXPROCS=%d workers=%d shards=%d aps=%d\n",
		fp.ServerGOMAXPROCS, fp.Workers, fp.Shards, fp.APs)
	res := rec.Result
	fmt.Printf("offered %d frames, failed %d (failed_share %.6f)\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, m := range defs {
		if v, ok := res.Metrics[m.name]; ok {
			fmt.Printf("  %-32s %16.6g %-8s %s\n", m.name, v.Value, v.Unit, m.moves)
		}
	}
	for _, c := range rec.Checks {
		fmt.Printf("CHECK FAILED: %s\n", c)
	}
}
