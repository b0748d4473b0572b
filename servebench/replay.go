package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"carpool/internal/cluster"
	"carpool/internal/core"
	"carpool/internal/engine"
	"carpool/internal/faults"
	"carpool/internal/fec"
	"carpool/internal/obs"
	"carpool/internal/ofdm"
	"carpool/internal/phy"
	"carpool/internal/sidechannel"
	"carpool/internal/sim"
)

// The replays below feed a run's own inputs through each layer's public
// calls from this file, so per-layer costs are measured without spans
// inside the program.

// replayWireBytes caps the bytes one wire replay pre-encodes.
const replayWireBytes = 32 << 20

// wireReplay replays the run's records, in the run's write chunks,
// through engine.Server over an in-memory conn to a backend that does
// nothing, followed by a drain request. It returns the median over a
// few replays of the time per record, and the bytes per record.
func wireReplay(sc schedule, chunkEnds []int, l loadSpec, seed int64) (nsPerRecord, bytesPerRecord float64, err error) {
	enc := newEncoder(l, seed)
	var stream []byte
	var cuts []int
	records := 0
	for i, end := range chunkEnds {
		for ; records < end; records++ {
			stream = enc.append(stream, records, sc.items[records])
		}
		cuts = append(cuts, len(stream))
		if len(stream) >= replayWireBytes && i < len(chunkEnds)-1 {
			break
		}
	}
	stream = engine.AppendControlRecord(stream, engine.RecDrain)
	cuts = append(cuts, len(stream))
	records++

	runs := make([]float64, 5)
	for r := range runs {
		d, err := replayStream(stream, cuts)
		if err != nil {
			return 0, 0, err
		}
		runs[r] = float64(d.Nanoseconds()) / float64(records)
	}
	return median(runs), float64(len(stream)) / float64(records), nil
}

func replayStream(stream []byte, cuts []int) (time.Duration, error) {
	client, server := net.Pipe()
	ln := &pipeListener{conn: server, closed: make(chan struct{})}
	srv := engine.NewServerFor(nopBackend{})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() {
		client.Close()
		cancel()
		<-served
	}()

	replied := make(chan error, 1)
	go func() {
		_, err := engine.ReadStatsReply(bufio.NewReader(client))
		replied <- err
	}()
	t0 := time.Now()
	prev := 0
	for _, c := range cuts {
		if _, err := client.Write(stream[prev:c]); err != nil {
			return 0, fmt.Errorf("wire replay: %w", err)
		}
		prev = c
	}
	if err := <-replied; err != nil {
		return 0, fmt.Errorf("wire replay drain reply: %w", err)
	}
	return time.Since(t0), nil
}

// pipeListener hands out one in-memory conn, then blocks until closed.
type pipeListener struct {
	conn   net.Conn
	once   sync.Once
	used   bool
	closed chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	if !l.used {
		l.used = true
		return l.conn, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// nopBackend accepts everything and does nothing.
type nopBackend struct{}

func (nopBackend) Submit(int, []byte) error                          { return nil }
func (nopBackend) SubmitSize(int, int) error                         { return nil }
func (nopBackend) SubmitBatch(items []engine.BatchItem) (int, error) { return len(items), nil }
func (nopBackend) Stats() engine.Stats                               { return engine.Stats{DeliveredBytesPerSTA: []int64{}} }
func (nopBackend) StageStats() engine.StageStats                     { return engine.StageStats{} }
func (nopBackend) Drain(context.Context) error                       { return nil }
func (nopBackend) Stopped() bool                                     { return true }
func (nopBackend) Telemetry(uint64, engine.Stats, bool) engine.TelemetryUpdate {
	return engine.TelemetryUpdate{}
}

// vclock is the stepper replay's virtual clock.
type vclock struct{ now time.Duration }

func (c *vclock) Now() time.Duration { return c.now }

// plannedTx is one replayed plan kept for the PHY replay.
type plannedTx struct {
	seq  uint64
	subs []core.Subframe
}

// stepperResult is the stepper replay's timing per transmission.
type stepperResult struct {
	planNs, settleNs float64
	txs              int
	plans            []plannedTx
}

// stepperFrames caps the frames one stepper replay admits.
const stepperFrames = 400_000

// stepperReplay replays the run's arrival schedule through the public
// engine.Stepper with the run's engine configuration (one AP's share of
// a cluster), timing BuildPlan and Settle. Delivery is the lossless oracle: the transport has its
// own metrics. Virtual time advances by each plan's air occupancy when
// the engine paces airtime, and otherwise by the live run's mean time
// per transmission, so plans take the shape they had live. keepPlans
// keeps that many evenly spread plans (with payloads) for the PHY replay.
func stepperReplay(spec serveSpec, sc schedule, l loadSpec, seed int64, live engine.Stats, keepPlans int) (stepperResult, error) {
	cfg := engineConfig(spec, &obs.Sink{Registry: obs.NewRegistry()})
	cfg.Transport = &engine.OracleTransport{}
	clk := &vclock{}
	cfg.Clock = clk
	e, err := engine.New(cfg)
	if err != nil {
		return stepperResult{}, err
	}
	st := engine.NewStepper(e)
	var gap time.Duration
	if !spec.Pace && live.Transmissions > 0 {
		gap = live.Elapsed / time.Duration(live.Transmissions)
	}
	enc := newEncoder(l, seed)
	var rec []byte
	stride := 1
	if keepPlans > 0 {
		stride = max(1, int(live.Transmissions)/spec.APs/keepPlans)
	}

	var res stepperResult
	var planNs, settleNs time.Duration
	ctx := context.Background()
	next, admitted := 0, 0
	for {
		now := clk.now
		for ; next < len(sc.items) && sc.items[next].due() <= now && admitted < stepperFrames; next++ {
			it := sc.items[next]
			if it.roam || (spec.APs > 1 && cluster.HomeAP(int(it.sta), spec.APs) != 0) {
				continue // a cluster replays its first AP's home stations
			}
			var payload []byte
			if l.Payload {
				rec = enc.append(rec[:0], next, it)
				payload = rec[len(rec)-l.FrameBytes:]
			}
			_ = st.Submit(int(it.sta), l.FrameBytes, payload, now) // a full queue rejects, as it would live
			admitted++
		}
		t0 := time.Now()
		tx := st.BuildPlan(now)
		planNs += time.Since(t0)
		if tx == nil {
			switch {
			case next < len(sc.items) && admitted < stepperFrames:
				clk.now = max(now, sc.items[next].due())
			default:
				d, ok := st.EarliestEligible(now)
				if !ok {
					res.planNs = float64(planNs.Nanoseconds()) / float64(max(res.txs, 1))
					res.settleNs = float64(settleNs.Nanoseconds()) / float64(max(res.txs, 1))
					return res, nil
				}
				clk.now = now + d
			}
			continue
		}
		if keepPlans > 0 && res.txs%stride == 0 && len(res.plans) < keepPlans {
			res.plans = append(res.plans, capturePlan(tx.Plan()))
		}
		if err := st.Deliver(ctx, tx); err != nil {
			return stepperResult{}, err
		}
		end := now + gap
		if spec.Pace || gap == 0 {
			end = now + tx.Airtime()
		}
		t1 := time.Now()
		st.Settle(tx, end)
		settleNs += time.Since(t1)
		res.txs++
		clk.now = end
	}
}

// capturePlan copies a plan's subframes as the PHY transport would put
// them on the air: each subframe carries its frames' bytes back to back.
func capturePlan(p *engine.Plan) plannedTx {
	out := plannedTx{seq: p.Seq}
	for _, sub := range p.Subs {
		var b []byte
		for _, f := range sub.Payloads {
			b = append(b, f...)
		}
		out.subs = append(out.subs, core.Subframe{Receiver: engine.STAMAC(sub.STA), MCS: sub.MCS, Payload: b})
	}
	return out
}

// phyResult holds the PHY replay's per-call costs.
type phyResult struct {
	buildNs, channelNs, syncNs, demodNs, viterbiNs, receiveNs, rxOK float64
}

// phyReplay replays captured plans through core.BuildFrame,
// faults.Scenario.Apply and, for every addressed receiver, the whole
// core.ReceiveFrame, then again piecewise through phy.Sync,
// phy.DecodeDataSymbols and fec.ViterbiDecode for its own subframe. The
// frame and receiver settings are the PHY transport's.
func phyReplay(plans []plannedTx, seed int64) (phyResult, error) {
	var r phyResult
	var txs, rxs, ok int
	scheme := sidechannel.DefaultScheme()
	for _, p := range plans {
		t0 := time.Now()
		frame, err := core.BuildFrame(p.subs, core.FrameConfig{})
		r.buildNs += float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return r, fmt.Errorf("phy replay: %w", err)
		}
		t0 = time.Now()
		rx := faults.Scenario{Seed: sim.DeriveSeed(seed, int(p.seq))}.Apply(frame.Samples)
		r.channelNs += float64(time.Since(t0).Nanoseconds())
		txs++

		for i, sf := range p.subs {
			rxs++
			t0 = time.Now()
			res, err := core.ReceiveFrame(rx, core.ReceiverConfig{MAC: sf.Receiver, UseRTE: true})
			r.receiveNs += float64(time.Since(t0).Nanoseconds())
			if err == nil && res != nil {
				for _, got := range res.Subframes {
					if got.Position == i+1 && bytes.Equal(got.Payload, sf.Payload) {
						ok++
						break
					}
				}
			}

			t0 = time.Now()
			buf, h, _, status := phy.Sync(rx, 0)
			r.syncNs += float64(time.Since(t0).Nanoseconds())
			if status != phy.StatusOK {
				return r, fmt.Errorf("phy replay: sync status %v", status)
			}
			tx := frame.Subframes[i]
			_, sigPhase, err := phy.DecodeSIGAt(buf, h, ofdm.PreambleLen+tx.StartSymbol*ofdm.SymbolLen, tx.StartSymbol)
			if err != nil {
				return r, fmt.Errorf("phy replay: %w", err)
			}
			tr := core.NewRTETracker()
			tr.Init(h, sf.MCS.Mod)
			first := tx.StartSymbol + 1
			nsym := sf.MCS.NumSymbols(len(sf.Payload))
			t0 = time.Now()
			seg, err := phy.DecodeDataSymbols(buf, ofdm.PreambleLen+first*ofdm.SymbolLen, first, nsym,
				sf.MCS.Mod, tr, &scheme, sigPhase)
			r.demodNs += float64(time.Since(t0).Nanoseconds())
			if err != nil {
				return r, fmt.Errorf("phy replay: %w", err)
			}
			ncbps := sf.MCS.CodedBitsPerSymbol()
			il, err := fec.CachedInterleaver(ncbps, sf.MCS.Mod.BitsPerSymbol())
			if err != nil {
				return r, err
			}
			coded := make([]byte, nsym*ncbps)
			for s := 0; s < nsym; s++ {
				if err := il.DeinterleaveInto(coded[s*ncbps:(s+1)*ncbps], seg.Blocks[s]); err != nil {
					return r, err
				}
			}
			t0 = time.Now()
			_, err = fec.ViterbiDecode(coded, sf.MCS.Rate, nsym*sf.MCS.DataBitsPerSymbol())
			r.viterbiNs += float64(time.Since(t0).Nanoseconds())
			if err != nil {
				return r, err
			}
		}
	}
	if txs == 0 || rxs == 0 {
		return r, fmt.Errorf("phy replay: no plans")
	}
	r.buildNs /= float64(txs)
	r.channelNs /= float64(txs)
	r.syncNs /= float64(rxs)
	r.demodNs /= float64(rxs)
	r.viterbiNs /= float64(rxs)
	r.receiveNs /= float64(rxs)
	r.rxOK = float64(ok) / float64(rxs)
	return r, nil
}

// histQuantile is the nearest-rank q-quantile of a latency histogram,
// interpolated log-linearly inside its bucket (linearly in the first),
// so it reads with all its digits rather than as a bucket bound. A
// quantile in the overflow bucket reads as the top bound.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	var total int64
	for _, c := range h.Buckets {
		total += c
	}
	if total == 0 || len(h.Bounds) == 0 || h.Sum == 0 {
		return 0 // empty, or every sample was exactly zero
	}
	rank := max(1, int64(math.Ceil(q*float64(total))))
	var cum int64
	for i, c := range h.Buckets {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		f := float64(rank-cum) / float64(c)
		hi := h.Bounds[i]
		if i == 0 {
			return hi * f
		}
		lo := h.Bounds[i-1]
		return min(lo*math.Pow(hi/lo, f), hi)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// bucketQuantile is the engine's own estimate: the bucket bound.
func bucketQuantile(h obs.HistogramSnapshot, q float64) float64 {
	return obs.BucketQuantile(h.Bounds, h.Buckets, q)
}
