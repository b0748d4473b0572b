// Command carpoolload is the open-loop load generator for carpoold. It
// offers a seeded Poisson frame schedule over the wire protocol, asks the
// server to drain, and reports client-side send rate plus the engine's
// delivered throughput, drop rate, and latency percentiles.
//
// Usage:
//
//	carpoolload [-addr host:port] [-net tcp|udp] [-stas N] [-rate fps]
//	            [-bytes N] [-duration dur] [-seed N] [-payload]
//	            [-open-loop] [-batch N] [-conns N] [-subscribe] [-sub-interval dur]
//	            [-aps N] [-roam rps] [-fec] [-json]
//
// -roam R interleaves seeded RecRoam records into the offered schedule
// at R events per second, each moving a random station to a random AP in
// [0, -aps): the roaming soak for a carpoold -aps cluster. Roams ride
// the station's own connection stripe, so they order correctly against
// that station's frames.
//
// -fec asserts the server is running the erasure-coded strategy
// (carpoold -fec K): the report prints the parity/recovery counters, and
// the run exits non-zero when the drain reply shows no parity subframes —
// catching a soak job that silently benchmarked the retry path instead.
//
// Without -open-loop the schedule is offered as fast as the connection
// accepts it — the throughput-ceiling probe used by the CI soak job.
//
// -subscribe streams telemetry on a second connection for the whole run
// and reconciles the accumulated deltas against the drain reply, exiting
// non-zero if they diverge (as it does on a malformed stats record). When
// the server samples frame lifecycles (carpoold -sample), the report adds
// the per-stage latency decomposition: queue wait, retry backoff, air,
// and decode time per delivered frame.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"carpool/internal/engine"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9048", "carpoold address")
	network := flag.String("net", "tcp", "transport: tcp or udp")
	stas := flag.Int("stas", 8, "stations to spread load over")
	rate := flag.Float64("rate", 50_000, "aggregate offered frames per second")
	frameBytes := flag.Int("bytes", 1400, "frame payload size")
	duration := flag.Duration("duration", time.Second, "offered schedule length")
	seed := flag.Int64("seed", 1, "arrival schedule seed")
	payload := flag.Bool("payload", false, "send real payload bytes instead of size-only records")
	openLoop := flag.Bool("open-loop", false, "pace arrivals against the wall clock")
	batch := flag.Int("batch", 0, "records per write (>1 enables grouped sends for the server's slab reads)")
	conns := flag.Int("conns", 1, "parallel sender connections striping the stations (tcp only)")
	aps := flag.Int("aps", 0, "AP count on the server (carpoold -aps); roam targets are drawn from it")
	roam := flag.Float64("roam", 0, "roam events per second interleaved into the schedule (needs -aps >= 2)")
	subscribe := flag.Bool("subscribe", false, "stream telemetry on a second connection and reconcile deltas against the drain reply")
	subInterval := flag.Duration("sub-interval", 0, "telemetry push interval for -subscribe (0 = 100ms)")
	wantFEC := flag.Bool("fec", false, "require erasure-coding activity in the drain reply (server must run carpoold -fec)")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	flag.Parse()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		cancel()
	}()

	rep, err := engine.RunLoad(ctx, engine.LoadConfig{
		Addr:        *addr,
		Network:     *network,
		NumSTAs:     *stas,
		RatePerSec:  *rate,
		FrameBytes:  *frameBytes,
		Duration:    *duration,
		Seed:        *seed,
		Payload:     *payload,
		OpenLoop:    *openLoop,
		Batch:       *batch,
		Conns:       *conns,
		APs:         *aps,
		Roam:        *roam,
		Subscribe:   *subscribe,
		SubInterval: *subInterval,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "carpoolload: %v\n", err)
		os.Exit(1)
	}

	if *asJSON {
		doc, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Println(string(doc))
	} else {
		printReport(rep)
	}
	if rep.Telemetry != nil && !rep.Telemetry.Reconciled {
		fmt.Fprintf(os.Stderr, "carpoolload: telemetry deltas do not reconcile with the drain reply\n")
		os.Exit(1)
	}
	if *wantFEC && rep.Server.FECParityTx == 0 {
		fmt.Fprintf(os.Stderr, "carpoolload: -fec: drain reply shows no parity subframes; is carpoold running -fec?\n")
		os.Exit(1)
	}
}

func printReport(rep *engine.LoadReport) {
	s := rep.Server
	fmt.Printf("offered   %d frames (%d sent) in %v — %.0f frames/s sent, %.0f delivered end to end\n",
		rep.Offered, rep.Sent, rep.TotalElapsed.Round(time.Millisecond), rep.SendRate, rep.DeliveredRate)
	if rep.RoamsSent > 0 {
		fmt.Printf("roaming   %d handoff requests interleaved\n", rep.RoamsSent)
	}
	fmt.Printf("engine    accepted %d  rejected %d  delivered %d  dropped %d  expired %d\n",
		s.Accepted, s.Rejected, s.Delivered, s.Dropped, s.Expired)
	fmt.Printf("carpool   %d tx, %.2f subframes/tx, %d seq-ACK slots, airtime %v\n",
		s.Transmissions, s.MeanGroupSize, s.SeqACKs, s.AirtimeBusy.Round(time.Microsecond))
	if s.FECParityTx > 0 {
		fmt.Printf("fec       %d parity subframes, %d recovered from parity, %d decode failures\n",
			s.FECParityTx, s.FECRecovered, s.FECDecodeFail)
	}
	fmt.Printf("goodput   %.1f Mbit/s wall, %.1f Mbit/s airtime, drop rate %.4f\n",
		s.GoodputMbps, s.AirtimeGoodputMbps, s.DropRate)
	fmt.Printf("latency   p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  fairness %.4f\n",
		s.LatencyP50Ms, s.LatencyP95Ms, s.LatencyP99Ms, s.ByteFairnessIndex)
	if t := rep.Telemetry; t != nil {
		verdict := "reconciled"
		if !t.Reconciled {
			verdict = "DIVERGED"
		}
		fmt.Printf("telemetry %d updates (final=%v): deltas %s with drain reply\n",
			t.Updates, t.Final, verdict)
	}
	if st := rep.Stages; st != nil && st.SampledDelivered > 0 {
		fmt.Printf("stages    1-in-%d sampling, %d frames traced (mean / p95 ms):\n",
			st.SampleEvery, st.SampledDelivered)
		for _, row := range []struct {
			name string
			d    engine.StageDist
		}{
			{"queue wait", st.QueueWait},
			{"backoff", st.Backoff},
			{"air", st.Air},
			{"decode", st.Decode},
		} {
			fmt.Printf("  %-10s %8.3f / %8.3f\n", row.name, row.d.MeanMs, row.d.P95Ms)
		}
	}
}
