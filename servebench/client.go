package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"carpool/internal/engine"
)

// serverProc is one running server process.
type serverProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	addr   string
}

// liveProcs tracks started servers so the watchdog can stop them.
var liveProcs struct {
	sync.Mutex
	set map[*serverProc]struct{}
}

func startServer(spec serveSpec) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	js, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve", string(js))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", spec.GOMAXPROCS))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout)}
	liveProcs.Lock()
	if liveProcs.set == nil {
		liveProcs.set = map[*serverProc]struct{}{}
	}
	liveProcs.set[p] = struct{}{}
	liveProcs.Unlock()
	return p, nil
}

func (p *serverProc) waitReady() error {
	line, err := p.stdout.ReadString('\n')
	if err != nil {
		return fmt.Errorf("server did not start: %w", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "READY ")
	if !ok {
		return fmt.Errorf("server said %q, want READY <addr>", line)
	}
	p.addr = addr
	return nil
}

// finish closes the server's stdin, reads its report and waits for it
// to exit.
func (p *serverProc) finish() (serverReport, error) {
	p.stdin.Close()
	var rep serverReport
	line, rerr := p.stdout.ReadString('\n')
	werr := p.wait()
	if rerr != nil {
		return rep, fmt.Errorf("reading server report: %w", rerr)
	}
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		return rep, fmt.Errorf("bad server report: %w", err)
	}
	return rep, werr
}

// kill stops the server without a report; safe after finish.
func (p *serverProc) kill() {
	if p.cmd.ProcessState == nil {
		_ = p.cmd.Process.Kill()
		_ = p.wait()
	}
}

func (p *serverProc) wait() error {
	err := p.cmd.Wait()
	liveProcs.Lock()
	delete(liveProcs.set, p)
	liveProcs.Unlock()
	return err
}

func killAllServers() {
	liveProcs.Lock()
	procs := make([]*serverProc, 0, len(liveProcs.set))
	for p := range liveProcs.set {
		procs = append(procs, p)
	}
	liveProcs.Unlock()
	for _, p := range procs {
		_ = p.cmd.Process.Kill()
	}
}

// setUp starts the server and generates the schedule reps times, timing
// each from process start until the server listens and the schedule
// exists, and keeps the last server. It returns every set-up time.
func setUp(spec serveSpec, l loadSpec, seed int64, seconds float64, reps int) (*serverProc, schedule, []float64, error) {
	times := make([]float64, 0, reps)
	for k := 0; ; k++ {
		t0 := time.Now()
		p, err := startServer(spec)
		if err != nil {
			return nil, schedule{}, nil, err
		}
		sc := makeSchedule(spec, l, seed, seconds)
		if err := p.waitReady(); err != nil {
			p.kill()
			return nil, schedule{}, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if k == reps-1 {
			return p, sc, times, nil
		}
		if _, err := p.finish(); err != nil {
			return nil, schedule{}, nil, fmt.Errorf("stopping set-up server: %w", err)
		}
	}
}

// passResult is one served run as the client saw it.
type passResult struct {
	drain   engine.Stats
	rep     serverReport
	sentRec int // records written, data and roam
	// wall is first record sent to drain reply; sendWall the time to send.
	wall, sendWall time.Duration
	lagP99         time.Duration
	chunkEnds      []int // schedule index after each write
	sub            *subscription
}

// subscription is the telemetry stream of a run.
type subscription struct {
	final bool
	sum   engine.StatsDelta
	last  engine.Stats
	err   error
}

const (
	maxChunk  = 256 << 10
	ioTimeout = 120 * time.Second
)

// runPass drives one started server through a schedule: it offers the
// records (open loop or all at once), requests a drain, reads the drain
// reply and, when asked, the telemetry stream, then stops the server.
func runPass(p *serverProc, sc schedule, l loadSpec, seed int64) (*passResult, error) {
	defer p.kill()
	conn, err := net.DialTimeout("tcp", p.addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(ioTimeout))

	res := &passResult{}
	var subDone chan struct{}
	if l.Subscribe {
		sconn, err := net.DialTimeout("tcp", p.addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		_ = sconn.SetDeadline(time.Now().Add(ioTimeout))
		if _, err := sconn.Write(engine.AppendSubscribeRecord(nil, 100*time.Millisecond)); err != nil {
			sconn.Close()
			return nil, err
		}
		res.sub = &subscription{}
		subDone = make(chan struct{})
		go func() {
			defer close(subDone)
			readTelemetry(sconn, res.sub)
		}()
		defer func() {
			sconn.Close() // ends the reader on early returns
			<-subDone
		}()
	}

	enc := newEncoder(l, seed)
	start := time.Now()
	var buf []byte
	var chunkDone []time.Duration
	for i := 0; i < len(sc.items); {
		now := time.Since(start)
		if d := sc.items[i].due() - now; d > 0 {
			time.Sleep(d)
			continue
		}
		j := i
		for buf = buf[:0]; j < len(sc.items) && sc.items[j].due() <= now && len(buf) < maxChunk; j++ {
			buf = enc.append(buf, j, sc.items[j])
		}
		if _, err := conn.Write(buf); err != nil {
			return nil, fmt.Errorf("sending records: %w", err)
		}
		chunkDone = append(chunkDone, time.Since(start))
		res.chunkEnds = append(res.chunkEnds, j)
		i = j
		if l.Rate > 0 {
			if rest := l.WriteEvery - (time.Since(start) - now); rest > 0 {
				time.Sleep(rest)
			}
		}
	}
	res.sendWall = time.Since(start)
	res.sentRec = len(sc.items)
	if _, err := conn.Write(engine.AppendControlRecord(nil, engine.RecDrain)); err != nil {
		return nil, fmt.Errorf("requesting drain: %w", err)
	}
	res.drain, err = engine.ReadStatsReply(conn)
	if err != nil {
		return nil, fmt.Errorf("reading drain reply: %w", err)
	}
	res.wall = time.Since(start)
	res.lagP99 = lagP99(sc, res.chunkEnds, chunkDone)

	if subDone != nil {
		select {
		case <-subDone:
		case <-time.After(10 * time.Second):
			return nil, errors.New("telemetry stream did not end after the drain")
		}
	}
	conn.Close()
	res.rep, err = p.finish()
	if err != nil {
		return nil, err
	}
	return res, nil
}

func readTelemetry(conn net.Conn, s *subscription) {
	br := bufio.NewReader(conn)
	for {
		upd, err := engine.ReadTelemetry(br)
		if err != nil {
			s.err = err
			return
		}
		s.sum.Add(upd.Delta)
		s.last = upd.Stats
		if upd.Final {
			s.final = true
			return
		}
	}
}

// lagP99 is the 99th percentile, over data records, of how long after
// its due time each record's write returned, counted in a histogram of
// one-microsecond buckets up to one second.
func lagP99(sc schedule, ends []int, done []time.Duration) time.Duration {
	const top = 1_000_000
	hist := make([]int32, top+1)
	n, i := 0, 0
	for c, end := range ends {
		for ; i < end; i++ {
			if !sc.items[i].roam {
				lag := (done[c] - sc.items[i].due()) / time.Microsecond
				hist[min(max(lag, 0), top)]++
				n++
			}
		}
	}
	rank := (n*99 + 99) / 100
	for lag, c := range hist {
		if rank -= int(c); rank <= 0 {
			return time.Duration(lag) * time.Microsecond
		}
	}
	return 0
}

// maxLagP99 marks an open-loop run invalid when its generator fell this
// far behind schedule at the 99th percentile, so that a slow client is
// never read as a slow server.
const maxLagP99 = 20 * time.Millisecond

// failuresCheck starts the message of the check that no frame failed:
// every workload is sized so that none is rejected, dropped or expired.
const failuresCheck = "failed_share must be 0:"

// checkPass applies the accounting checks every run must pass and
// returns one message per failed check.
func checkPass(res *passResult, sc schedule, l loadSpec, aps int) []string {
	var bad []string
	st := res.drain
	if !res.rep.Drained {
		bad = append(bad, "server did not finish its drain")
	}
	if off := int64(sc.frames); st.Accepted+st.Rejected != off {
		bad = append(bad, fmt.Sprintf("offered %d != accepted %d + rejected %d", off, st.Accepted, st.Rejected))
	}
	if st.Accepted != st.Delivered+st.Dropped+st.Expired {
		bad = append(bad, fmt.Sprintf("accepted %d != delivered %d + dropped %d + expired %d",
			st.Accepted, st.Delivered, st.Dropped, st.Expired))
	}
	if st.Pending != 0 {
		bad = append(bad, fmt.Sprintf("pending %d after drain", st.Pending))
	}
	if st.Delivered == 0 {
		bad = append(bad, "nothing delivered")
	}
	if st.Rejected+st.Dropped+st.Expired != 0 {
		bad = append(bad, fmt.Sprintf("%s rejected %d dropped %d expired %d", failuresCheck,
			st.Rejected, st.Dropped, st.Expired))
	}
	if roams := int64(len(sc.items) - sc.frames); res.rep.Roams != roams || res.rep.RoamErrors != 0 {
		bad = append(bad, fmt.Sprintf("roams: %d scheduled, %d done, %d failed",
			roams, res.rep.Roams, res.rep.RoamErrors))
	}
	lat, ok := res.rep.Hists[latencyHist]
	switch {
	case !ok:
		bad = append(bad, "server exported no latency histogram")
	case lat.Count != st.Delivered:
		bad = append(bad, fmt.Sprintf("latency samples %d != delivered %d", lat.Count, st.Delivered))
	case aps == 1 && (bucketQuantile(lat, 0.5) != st.LatencyP50Ms || bucketQuantile(lat, 0.99) != st.LatencyP99Ms):
		// A cluster's reply averages per-AP quantiles, so only a bare
		// engine's reply must match the exported histogram exactly.
		bad = append(bad, "latency histogram disagrees with the drain reply's quantiles")
	}
	if s := res.sub; s != nil {
		switch {
		case s.err != nil && !s.final:
			bad = append(bad, fmt.Sprintf("telemetry stream: %v", s.err))
		case !s.final:
			bad = append(bad, "telemetry stream ended without a final update")
		case !reconciles(s, st):
			bad = append(bad, "telemetry deltas do not reconcile with the drain reply")
		}
	}
	if l.Rate > 0 && res.lagP99 > maxLagP99 {
		bad = append(bad, fmt.Sprintf("invalid run: load generator lag p99 %v exceeds %v", res.lagP99, maxLagP99))
	}
	return bad
}

// reconciles reports whether the summed telemetry deltas and the last
// pushed Stats both equal the drain reply's counters.
func reconciles(s *subscription, st engine.Stats) bool {
	d, last := s.sum, s.last
	pairs := [][3]int64{
		{d.Accepted, last.Accepted, st.Accepted},
		{d.Rejected, last.Rejected, st.Rejected},
		{d.Delivered, last.Delivered, st.Delivered},
		{d.Dropped, last.Dropped, st.Dropped},
		{d.Expired, last.Expired, st.Expired},
		{d.Retries, last.Retries, st.Retries},
		{d.Transmissions, last.Transmissions, st.Transmissions},
		{d.Subframes, last.Subframes, st.Subframes},
		{d.DeliveredBytes, last.DeliveredBytes, st.DeliveredBytes},
	}
	for _, p := range pairs {
		if p[0] != p[2] || p[1] != p[2] {
			return false
		}
	}
	return true
}

// deliveredFPS is the drain reply's delivered count over the wall time
// from the first record sent to the drain reply; sent records never
// count.
func (r *passResult) deliveredFPS() float64 {
	return float64(r.drain.Delivered) / r.wall.Seconds()
}

func (r *passResult) cpuNsPerFrame() float64 {
	return float64(r.rep.CPUNs) / float64(r.drain.Delivered)
}

// runTimeout keeps one invocation, builds aside, under three minutes.
const runTimeout = 170 * time.Second

func withWatchdog(ctx context.Context) context.CancelFunc {
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	go func() {
		<-ctx.Done()
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "servebench: run exceeded its time limit")
			killAllServers()
			os.Exit(2)
		}
	}()
	return cancel
}
