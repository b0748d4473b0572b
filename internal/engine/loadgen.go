package engine

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"carpool/internal/sim"
	"carpool/internal/traffic"
)

// LoadConfig parameterizes the open-loop load generator behind
// cmd/carpoolload.
type LoadConfig struct {
	// Addr is the carpoold endpoint; Network "tcp" (default) or "udp".
	Addr    string
	Network string
	// NumSTAs spreads offered frames over this many stations (default 8).
	NumSTAs int
	// RatePerSec is the aggregate offered frame rate (default 50k).
	RatePerSec float64
	// FrameBytes sizes each offered frame (default 1400).
	FrameBytes int
	// Duration bounds the offered schedule (default 1s).
	Duration time.Duration
	// Seed makes the Poisson arrival schedule reproducible.
	Seed int64
	// Payload switches from size-only records to real payload bytes.
	Payload bool
	// OpenLoop replays the schedule against the wall clock (arrivals do
	// not wait for the server — the generator's normal mode). Off, frames
	// are offered as fast as the connection accepts them: the
	// throughput-ceiling probe.
	OpenLoop bool
	// Batch groups this many records per write (values < 2 keep the
	// per-record path): each group is assembled back to back in one buffer
	// and leaves in a single write — the client half of the server's slab
	// reads. Open-loop pacing waits on each group's first arrival.
	Batch int
	// Conns spreads the offered schedule over this many parallel sender
	// connections (TCP only; default 1). Stations are striped sta mod
	// Conns, so each station's frames ride one stream and per-STA order
	// is preserved; on the server the stripes land on disjoint admission
	// shards. Every extra connection ends with a stats round-trip before
	// the drain is requested, so no offered frame can race the drain gate.
	Conns int
	// APs is the number of APs the server runs (cmd/carpoold -aps);
	// roam targets are drawn from it. Values < 2 disable roaming.
	APs int
	// Roam is the aggregate roam-event rate in events per second: seeded
	// random stations move to seeded random APs mid-run via RecRoam
	// records interleaved into the offered schedule, so each roam orders
	// correctly against the station's own frames (same stream, wire
	// FIFO). Zero disables roaming.
	Roam float64
	// Subscribe opens a second connection streaming telemetry for the
	// whole run (TCP only): every pushed delta is accumulated and, after
	// the drain reply, reconciled against the server's final counters.
	// The stream's last update also carries the per-stage latency
	// decomposition when the server runs with lifecycle sampling.
	Subscribe bool
	// SubInterval is the requested telemetry push interval (0 = 100 ms).
	SubInterval time.Duration
}

// TelemetrySummary is the subscriber side of a load run: how many updates
// arrived, whether the stream ended with a final update, the accumulated
// deltas, and whether they reconcile with the drain reply.
type TelemetrySummary struct {
	// Updates counts telemetry records received; Final reports a clean
	// stream end (the server flagged its last update).
	Updates int64 `json:"updates"`
	Final   bool  `json:"final"`
	// Sum is every update's delta accumulated client-side; because deltas
	// telescope from the zero Stats it must equal the counter fields of
	// Last (and of the drain reply).
	Sum StatsDelta `json:"sum"`
	// Last is the final update's cumulative Stats.
	Last Stats `json:"last"`
	// Reconciled reports that Sum and Last match the drain reply's
	// counters exactly.
	Reconciled bool `json:"reconciled"`

	stages *StageStats // final update's decomposition, if pushed
}

// LoadReport is the generator's summary: client-side offered counts plus
// the server's drained Stats.
type LoadReport struct {
	// Offered is the schedule length; Sent the records actually written
	// (the difference is frames a cancelled run cut off).
	Offered, Sent int64
	// RoamsSent counts RecRoam records written (LoadConfig.Roam).
	RoamsSent int64 `json:"roams_sent,omitempty"`
	// Elapsed is the wall time from first record to drain request;
	// TotalElapsed extends through the server's drain completion.
	Elapsed, TotalElapsed time.Duration
	// SendRate is Sent/Elapsed in frames per second; EndToEndRate is
	// Sent/TotalElapsed, which counts frames the server rejected too.
	SendRate, EndToEndRate float64
	// DeliveredRate is Server.Delivered/TotalElapsed: frames offered,
	// queued, transmitted, and ACKed per second. Rejected, dropped, and
	// expired frames never count.
	DeliveredRate float64
	// Server is the engine's post-drain accounting: delivery counts, drop
	// rate, latency percentiles.
	Server Stats
	// Telemetry summarizes the subscribe stream (nil without Subscribe);
	// Stages is the final update's per-stage latency decomposition, set
	// only when the server samples frame lifecycles (Config.SampleEvery).
	Telemetry *TelemetrySummary `json:"telemetry,omitempty"`
	Stages    *StageStats       `json:"stages,omitempty"`
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Network == "" {
		c.Network = "tcp"
	}
	if c.NumSTAs <= 0 {
		c.NumSTAs = 8
	}
	if c.RatePerSec <= 0 {
		c.RatePerSec = 50_000
	}
	if c.FrameBytes <= 0 {
		c.FrameBytes = 1400
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Conns <= 0 {
		c.Conns = 1
	}
	return c
}

// loadItem is one scheduled offered frame, or (roam true) a scheduled
// RecRoam moving sta to AP ap.
type loadItem struct {
	at   time.Duration
	sta  int
	size int
	ap   int
	roam bool
}

// roamSchedule draws the seeded roam events: exponential interarrivals
// at cfg.Roam events/s across cfg.Duration, each moving a random station
// to a random AP. Empty when roaming is off or the server has one AP.
func roamSchedule(cfg LoadConfig) []loadItem {
	if cfg.Roam <= 0 || cfg.APs < 2 {
		return nil
	}
	rng := rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, 0x9a0a)))
	var items []loadItem
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / cfg.Roam * float64(time.Second))
		if at >= cfg.Duration {
			return items
		}
		items = append(items, loadItem{
			at: at, sta: rng.Intn(cfg.NumSTAs), ap: rng.Intn(cfg.APs), roam: true,
		})
	}
}

// LoadSchedule materializes the generator's offered schedule: one seeded
// Poisson flow per station (seeds derived from cfg.Seed), merged by
// arrival time with station index as tie-break. Exposed so tests and the
// deterministic runner can consume the identical workload.
func LoadSchedule(cfg LoadConfig) [][]traffic.Arrival {
	cfg = cfg.withDefaults()
	perSTA := cfg.RatePerSec / float64(cfg.NumSTAs)
	flows := make([][]traffic.Arrival, cfg.NumSTAs)
	for sta := range flows {
		rng := rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, sta)))
		flows[sta] = traffic.PoissonFlow(rng, perSTA, cfg.FrameBytes, cfg.Duration)
	}
	return flows
}

// RunLoad offers a seeded Poisson schedule to a carpoold server over one
// connection, requests a drain, and reports the server's final stats.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()

	var schedule []loadItem
	for sta, flow := range LoadSchedule(cfg) {
		for _, a := range flow {
			schedule = append(schedule, loadItem{at: a.Time, sta: sta, size: a.Size})
		}
	}
	offered := int64(len(schedule))
	schedule = append(schedule, roamSchedule(cfg)...)
	sort.Slice(schedule, func(i, j int) bool {
		if schedule[i].at != schedule[j].at {
			return schedule[i].at < schedule[j].at
		}
		if schedule[i].sta != schedule[j].sta {
			return schedule[i].sta < schedule[j].sta
		}
		return !schedule[i].roam && schedule[j].roam // frames before a same-instant roam
	})

	conn, err := net.Dial(cfg.Network, cfg.Addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	// The subscriber rides a second connection so telemetry pushes never
	// share a stream with the drain reply; it runs for the whole load and
	// ends on the server's final update (pushed once the drain completes).
	var sub *TelemetrySummary
	var subErr chan error
	if cfg.Subscribe {
		if cfg.Network != "tcp" {
			return nil, fmt.Errorf("carpoolload: -subscribe needs tcp, not %s", cfg.Network)
		}
		subConn, err := net.Dial(cfg.Network, cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("carpoolload: subscribe dial: %w", err)
		}
		defer subConn.Close()
		subStop := context.AfterFunc(ctx, func() { subConn.Close() })
		defer subStop()
		sub = &TelemetrySummary{}
		subErr = make(chan error, 1)
		go func() { subErr <- runSubscriber(subConn, cfg.SubInterval, sub) }()
	}

	var payload []byte
	if cfg.Payload {
		rng := rand.New(rand.NewSource(cfg.Seed))
		payload = make([]byte, cfg.FrameBytes)
		rng.Read(payload)
	}

	rep := &LoadReport{Offered: offered}
	start := time.Now()
	if cfg.Conns > 1 {
		// Parallel senders: stripe the schedule by station across extra
		// connections; this stream (conn) is stripe 0 and carries the
		// drain. Every extra stream barriers with a stats round-trip
		// before the drain request leaves, so the server has consumed all
		// of its records first — drain rejects later submissions.
		if cfg.Network != "tcp" {
			return nil, fmt.Errorf("carpoolload: -conns %d needs tcp, not %s", cfg.Conns, cfg.Network)
		}
		stripes := make([][]loadItem, cfg.Conns)
		for _, it := range schedule {
			c := it.sta % cfg.Conns
			stripes[c] = append(stripes[c], it)
		}
		sendErr := make(chan error, cfg.Conns-1)
		var sent, roams atomic.Int64
		for c := 1; c < cfg.Conns; c++ {
			go func(items []loadItem) {
				extra, err := net.Dial(cfg.Network, cfg.Addr)
				if err != nil {
					sendErr <- fmt.Errorf("carpoolload: sender dial: %w", err)
					return
				}
				defer extra.Close()
				stop := context.AfterFunc(ctx, func() { extra.Close() })
				defer stop()
				n, r, err := sendSchedule(ctx, extra, items, cfg, start, payload)
				sent.Add(n)
				roams.Add(r)
				if err != nil {
					sendErr <- err
					return
				}
				if _, err := extra.Write(AppendControlRecord(nil, RecStats)); err != nil {
					sendErr <- fmt.Errorf("carpoolload: sender barrier: %w", err)
					return
				}
				if _, err := ReadStatsReply(extra); err != nil {
					sendErr <- fmt.Errorf("carpoolload: sender barrier reply: %w", err)
					return
				}
				sendErr <- nil
			}(stripes[c])
		}
		n, r, err := sendSchedule(ctx, conn, stripes[0], cfg, start, payload)
		sent.Add(n)
		roams.Add(r)
		for c := 1; c < cfg.Conns; c++ {
			if werr := <-sendErr; werr != nil && err == nil {
				err = werr
			}
		}
		rep.Sent = sent.Load()
		rep.RoamsSent = roams.Load()
		if err != nil {
			return nil, err
		}
	} else {
		n, r, err := sendSchedule(ctx, conn, schedule, cfg, start, payload)
		rep.Sent = n
		rep.RoamsSent = r
		if err != nil {
			return nil, err
		}
	}
	// Drain handshake: the server finishes queued work, then reports.
	if _, err := conn.Write(AppendControlRecord(nil, RecDrain)); err != nil {
		return nil, fmt.Errorf("carpoolload: drain request: %w", err)
	}
	rep.Elapsed = time.Since(start)
	st, err := ReadStatsReply(conn)
	if err != nil {
		return nil, fmt.Errorf("carpoolload: stats reply: %w", err)
	}
	rep.Server = st
	rep.TotalElapsed = time.Since(start)
	if rep.Elapsed > 0 {
		rep.SendRate = float64(rep.Sent) / rep.Elapsed.Seconds()
	}
	if rep.TotalElapsed > 0 {
		rep.EndToEndRate = float64(rep.Sent) / rep.TotalElapsed.Seconds()
		rep.DeliveredRate = float64(st.Delivered) / rep.TotalElapsed.Seconds()
	}

	if sub != nil {
		// The drain finished, so the server pushes the stream's final
		// update within one interval; give it a generous multiple.
		wait := cfg.SubInterval
		if wait <= 0 {
			wait = defaultLoadSubInterval
		}
		select {
		case err := <-subErr:
			if err != nil {
				return nil, fmt.Errorf("carpoolload: telemetry stream: %w", err)
			}
		case <-time.After(10*wait + 5*time.Second):
			return nil, fmt.Errorf("carpoolload: telemetry stream did not end after drain")
		}
		sub.Reconciled = reconcile(sub, rep.Server)
		rep.Telemetry = sub
		rep.Stages = sub.stages
	}
	return rep, nil
}

// sendSchedule writes one connection's offered records — batched or
// per-record, open-loop paced or as fast as the stream accepts — and
// returns how many frames and roams left before an error or
// cancellation. The stream is fully flushed on return.
func sendSchedule(ctx context.Context, conn net.Conn, schedule []loadItem, cfg LoadConfig, start time.Time, payload []byte) (int64, int64, error) {
	var sent, roams int64
	var buf []byte
	appendItem := func(buf []byte, it loadItem) []byte {
		switch {
		case it.roam:
			roams++
			return AppendRoamRecord(buf, it.sta, it.ap)
		case cfg.Payload:
			sent++
			return AppendDataRecord(buf, it.sta, payload[:it.size])
		default:
			sent++
			return AppendSizeRecord(buf, it.sta, it.size)
		}
	}
	if cfg.Batch > 1 {
		// Batched mode: assemble up to Batch records in one buffer and
		// write them with a single call, bypassing the per-record copy
		// through bufio — one syscall per group instead of one per flush
		// window worth of small writes.
		for base := 0; base < len(schedule); base += cfg.Batch {
			if ctx.Err() != nil {
				break
			}
			end := min(base+cfg.Batch, len(schedule))
			group := schedule[base:end]
			if cfg.OpenLoop {
				if wait := group[0].at - time.Since(start); wait > 50*time.Microsecond {
					time.Sleep(wait)
				}
			}
			buf = buf[:0]
			for _, it := range group {
				buf = appendItem(buf, it)
			}
			if _, err := conn.Write(buf); err != nil {
				return sent, roams, fmt.Errorf("carpoolload: batch send: %w", err)
			}
		}
		return sent, roams, nil
	}
	bw := bufio.NewWriterSize(conn, 1<<16)
	const flushEvery = 256
	sinceFlush := 0
	for _, it := range schedule {
		if ctx.Err() != nil {
			break
		}
		if cfg.OpenLoop {
			if wait := it.at - time.Since(start); wait > 50*time.Microsecond {
				time.Sleep(wait)
			}
		}
		buf = appendItem(buf[:0], it)
		if _, err := bw.Write(buf); err != nil {
			return sent, roams, fmt.Errorf("carpoolload: send: %w", err)
		}
		if sinceFlush++; sinceFlush >= flushEvery {
			if err := bw.Flush(); err != nil {
				return sent, roams, fmt.Errorf("carpoolload: flush: %w", err)
			}
			sinceFlush = 0
		}
	}
	if err := bw.Flush(); err != nil {
		return sent, roams, fmt.Errorf("carpoolload: flush: %w", err)
	}
	return sent, roams, nil
}

// defaultLoadSubInterval is the telemetry push interval a load run asks
// for when LoadConfig.SubInterval is zero — tight enough that a one-second
// run sees several deltas.
const defaultLoadSubInterval = 100 * time.Millisecond

// runSubscriber streams telemetry into out until the server's final
// update (clean end, nil) or a stream error.
func runSubscriber(conn net.Conn, interval time.Duration, out *TelemetrySummary) error {
	if interval <= 0 {
		interval = defaultLoadSubInterval
	}
	if _, err := conn.Write(AppendSubscribeRecord(nil, interval)); err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	for {
		upd, err := ReadTelemetry(br)
		if err != nil {
			return err
		}
		out.Updates++
		out.Sum.Add(upd.Delta)
		out.Last = upd.Stats
		if upd.Stages != nil {
			out.stages = upd.Stages
		}
		if upd.Final {
			out.Final = true
			return nil
		}
	}
}

// reconcile checks the subscribe stream against the drain reply: the
// accumulated deltas and the final pushed Stats must both land exactly on
// the server's terminal counters (rate and elapsed fields are snapshots,
// not counters, and are excluded).
func reconcile(sub *TelemetrySummary, final Stats) bool {
	d, last := sub.Sum, sub.Last
	return d.Accepted == final.Accepted && last.Accepted == final.Accepted &&
		d.Rejected == final.Rejected && last.Rejected == final.Rejected &&
		d.Delivered == final.Delivered && last.Delivered == final.Delivered &&
		d.Dropped == final.Dropped && last.Dropped == final.Dropped &&
		d.Expired == final.Expired && last.Expired == final.Expired &&
		d.Retries == final.Retries && last.Retries == final.Retries &&
		d.Transmissions == final.Transmissions && last.Transmissions == final.Transmissions &&
		d.Subframes == final.Subframes && last.Subframes == final.Subframes &&
		d.DeliveredBytes == final.DeliveredBytes && last.DeliveredBytes == final.DeliveredBytes
}
