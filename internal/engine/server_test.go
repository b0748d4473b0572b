package engine

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

func TestWireStreamRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendDataRecord(buf, 7, []byte("hello"))
	buf = AppendSizeRecord(buf, 300, 1400)
	buf = AppendControlRecord(buf, RecDrain)

	br := bufio.NewReader(bytes.NewReader(buf))
	var scratch []byte
	rec, scratch, err := readRecord(br, scratch)
	if err != nil || rec.typ != RecData || rec.sta != 7 || string(rec.payload) != "hello" {
		t.Fatalf("data record = %+v, err %v", rec, err)
	}
	rec, scratch, err = readRecord(br, scratch)
	if err != nil || rec.typ != RecDataSize || rec.sta != 300 || rec.length != 1400 {
		t.Fatalf("size record = %+v, err %v", rec, err)
	}
	rec, _, err = readRecord(br, scratch)
	if err != nil || rec.typ != RecDrain {
		t.Fatalf("control record = %+v, err %v", rec, err)
	}
}

func TestWireDatagramTruncation(t *testing.T) {
	full := AppendDataRecord(nil, 1, []byte("payload"))
	if _, _, err := parseDatagramRecord(full[:3], 0); err == nil {
		t.Error("truncated header accepted")
	}
	if _, _, err := parseDatagramRecord(full[:len(full)-2], 0); err == nil {
		t.Error("truncated payload accepted")
	}
	rec, off, err := parseDatagramRecord(full, 0)
	if err != nil || off != len(full) || string(rec.payload) != "payload" {
		t.Fatalf("rec=%+v off=%d err=%v", rec, off, err)
	}
}

func TestWireOversizeRejected(t *testing.T) {
	hdr := appendHeader(nil, RecData, 0, MaxWirePayload+1)
	if _, _, err := readRecord(bufio.NewReader(bytes.NewReader(hdr)), nil); err == nil {
		t.Error("oversize length prefix accepted")
	}
}

// startLoopback runs an engine + TCP server on an ephemeral loopback
// port and returns the dial address plus a shutdown func.
func startLoopback(t *testing.T, cfg Config) (string, *Engine, func()) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := e.Start(ctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	srv := NewServer(e)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return ln.Addr().String(), e, func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

func TestServerTCP(t *testing.T) {
	addr, eng, shutdown := startLoopback(t, Config{NumSTAs: 4})
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var buf []byte
	for k := 0; k < 100; k++ {
		buf = AppendSizeRecord(buf, k%4, 900)
	}
	buf = AppendDataRecord(buf, 0, []byte("real payload bytes"))
	buf = AppendControlRecord(buf, RecDrain)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	st, err := ReadStatsReply(conn)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 101 || st.Delivered != 101 || st.Pending != 0 {
		t.Fatalf("drained stats = %+v", st)
	}
	if got := eng.Stats(); got.Delivered != 101 {
		t.Fatalf("engine stats disagree: %+v", got)
	}
}

func TestServerUDP(t *testing.T) {
	e, err := New(Config{NumSTAs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e)
	done := make(chan error, 1)
	go func() { done <- srv.ServeUDP(ctx, pc) }()

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var dgram []byte
	for k := 0; k < 20; k++ {
		dgram = AppendSizeRecord(dgram, k%2, 700)
	}
	if _, err := conn.Write(dgram); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(AppendControlRecord(nil, RecDrain)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	st, err := ReadStatsReply(conn)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 20 || st.Pending != 0 {
		t.Fatalf("drained stats = %+v", st)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve udp: %v", err)
	}
}

// TestEngineSoak drives ~5 seconds (1s outside CI; set CARPOOL_SOAK=1
// for the full length) of seeded open-loop load through the TCP frontend
// and gates on zero drops below the admission threshold, a fully drained
// shutdown, and no goroutine leaks. The CI engine-soak job runs this
// under -race.
func TestEngineSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	baseline := runtime.NumGoroutine()
	dur := time.Second
	if os.Getenv("CARPOOL_SOAK") != "" {
		dur = 5 * time.Second
	}
	addr, _, shutdown := startLoopback(t, Config{NumSTAs: 8, QueueCap: 1 << 16, Workers: 2})
	rep, err := RunLoad(context.Background(), LoadConfig{
		Addr:       addr,
		NumSTAs:    8,
		RatePerSec: 20_000,
		FrameBytes: 1200,
		Duration:   dur,
		Seed:       7,
		OpenLoop:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	shutdown()
	s := rep.Server
	t.Logf("soak %v: sent %d, server %+v", dur, rep.Sent, s)
	if s.Rejected != 0 || s.Dropped != 0 || s.Expired != 0 {
		t.Errorf("drops below the admission threshold: %+v", s)
	}
	if s.Delivered != rep.Sent || s.Pending != 0 {
		t.Errorf("unclean shutdown: delivered=%d sent=%d pending=%d", s.Delivered, rep.Sent, s.Pending)
	}
	if n := goroutineCount(baseline); n > baseline {
		t.Errorf("goroutine leak after soak: %d > baseline %d", n, baseline)
	}
}

// TestLoadReportDeliveredRate pins the generator's end-to-end rate to
// delivered frames. A 2-frame queue cap behind airtime-paced workers
// rejects most of a closed-loop burst, so the sent-based EndToEndRate
// must exceed DeliveredRate, which counts only what the server delivered.
func TestLoadReportDeliveredRate(t *testing.T) {
	addr, _, shutdown := startLoopback(t, Config{NumSTAs: 4, QueueCap: 2, PaceAirtime: true})
	rep, err := RunLoad(context.Background(), LoadConfig{
		Addr:       addr,
		NumSTAs:    4,
		RatePerSec: 4000,
		FrameBytes: 1200,
		Duration:   500 * time.Millisecond,
		Seed:       7,
	})
	shutdown()
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Server
	if s.Rejected == 0 {
		t.Fatalf("no frames rejected (%+v); the test needs an overloaded server", s)
	}
	want := float64(s.Delivered) / rep.TotalElapsed.Seconds()
	if math.Abs(rep.DeliveredRate-want) > 1e-9*want {
		t.Errorf("DeliveredRate %.3f, want Delivered/TotalElapsed = %.3f", rep.DeliveredRate, want)
	}
	if rep.DeliveredRate >= rep.EndToEndRate {
		t.Errorf("DeliveredRate %.0f not below sent-based EndToEndRate %.0f with %d of %d frames rejected",
			rep.DeliveredRate, rep.EndToEndRate, s.Rejected, rep.Sent)
	}
}

// TestLoadgenLoopbackThroughput is the acceptance criterion: the load
// generator against a loopback carpoold must sustain the frame-rate
// floor with a bounded p99 and leak no goroutines after drain. The floor
// scales down under the race detector and -short (the CI soak job runs
// the full-rate race build).
func TestLoadgenLoopbackThroughput(t *testing.T) {
	baseline := runtime.NumGoroutine()

	frames := int64(200_000)
	floor := 100_000.0
	if raceEnabled {
		floor = 15_000
	}
	if testing.Short() {
		frames, floor = frames/10, floor/2
	}
	// Deep queues: below the admission threshold nothing may drop.
	cfg := Config{NumSTAs: 8, QueueCap: 1 << 16}
	addr, _, shutdown := startLoopback(t, cfg)

	// Rate chosen so the 1s schedule holds the target frame count; the
	// generator runs closed-loop (as fast as the socket accepts).
	rep, err := RunLoad(context.Background(), LoadConfig{
		Addr:       addr,
		NumSTAs:    8,
		RatePerSec: float64(frames),
		FrameBytes: 1200,
		Duration:   time.Second,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	shutdown()
	s := rep.Server
	t.Logf("sent %d frames, drained in %v (%.0f frames/s end to end); server %+v",
		rep.Sent, rep.TotalElapsed.Round(time.Millisecond), rep.EndToEndRate, s)

	if rep.EndToEndRate < floor {
		t.Errorf("end-to-end rate %.0f frames/s below floor %.0f", rep.EndToEndRate, floor)
	}
	if s.Accepted != rep.Sent || s.Rejected != 0 {
		t.Errorf("drops below the admission threshold: accepted=%d rejected=%d sent=%d",
			s.Accepted, s.Rejected, rep.Sent)
	}
	if s.Delivered != s.Accepted || s.Pending != 0 {
		t.Errorf("drain incomplete: %+v", s)
	}
	if s.LatencyP99Ms <= 0 || s.LatencyP99Ms > 30_000 {
		t.Errorf("p99 latency %.3f ms out of bounds", s.LatencyP99Ms)
	}
	if n := goroutineCount(baseline); n > baseline {
		t.Errorf("goroutine leak after load run: %d > baseline %d", n, baseline)
	}
}
