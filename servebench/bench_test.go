package main

import (
	"math"
	"os"
	"strings"
	"testing"

	"carpool/internal/cluster"
	"carpool/internal/engine"
	"carpool/internal/obs"
)

// TestMain lets the test binary act as the server process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// TestRejectedFramesNeverCount overloads the oracle-small server with a
// two-frame queue cap: the rejections must fail the run's zero-failure
// check and no other, and delivered_fps must come out below the rate at
// which records were sent.
func TestRejectedFramesNeverCount(t *testing.T) {
	w, ok := findWorkload("oracle-small")
	if !ok {
		t.Fatal("no oracle-small workload")
	}
	spec := w.serve
	spec.QueueCap, spec.Seed = 2, 7
	run, err := servePass(spec, w.load, 7, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.checks) != 1 || !strings.HasPrefix(run.checks[0], failuresCheck) {
		t.Fatalf("overload failed checks %q, want only the zero-failure check", run.checks)
	}
	st := run.res.drain
	if st.Rejected == 0 {
		t.Fatal("a two-frame queue cap rejected nothing")
	}
	fps := run.res.deliveredFPS()
	if counted := fps * run.res.wall.Seconds(); math.Abs(counted-float64(st.Delivered)) > 0.5 {
		t.Fatalf("delivered_fps counts %.0f frames, the drain reply delivered %d", counted, st.Delivered)
	}
	if sentFPS := float64(run.sc.frames) / run.res.sendWall.Seconds(); fps >= sentFPS {
		t.Fatalf("delivered_fps %.0f not below the send rate %.0f with %d rejected", fps, sentFPS, st.Rejected)
	}
	res, _ := outcome(run)
	if res.Correct || res.Failed != res.Attempted || res.Attempted != int64(run.sc.frames) {
		t.Fatalf("outcome %+v: a failed check must count every offered frame as failed", res)
	}
}

// TestFailedOrMissingRoamsFailTheRun checks that a cluster run whose
// roam requests failed, or did not all arrive, fails its checks.
func TestFailedOrMissingRoamsFailTheRun(t *testing.T) {
	sc := schedule{items: []item{{sta: 0}, {sta: 1, roam: true, ap: 1}, {sta: 2, roam: true, ap: 0}}, frames: 1}
	for _, c := range []struct{ done, failed int64 }{{2, 0}, {1, 1}, {1, 0}} {
		res := &passResult{
			drain: engine.Stats{Accepted: 1, Delivered: 1},
			rep: serverReport{Drained: true, Roams: c.done, RoamErrors: c.failed,
				Hists: map[string]obs.HistogramSnapshot{latencyHist: {Count: 1}}},
		}
		bad := checkPass(res, sc, loadSpec{}, 4)
		ok := c.done == 2 && c.failed == 0
		if ok && len(bad) != 0 || !ok && (len(bad) != 1 || !strings.HasPrefix(bad[0], "roams:")) {
			t.Errorf("%d roams done, %d failed: failed checks %q", c.done, c.failed, bad)
		}
	}
}

// TestHistQuantileStaysInBucket checks that the interpolated quantile
// never leaves the bucket whose upper bound the engine reports.
func TestHistQuantileStaysInBucket(t *testing.T) {
	bounds := obs.LatencyBucketsMs
	buckets := make([]int64, len(bounds)+1)
	for i := range buckets {
		buckets[i] = int64(i % 7)
	}
	h := obs.HistogramSnapshot{Bounds: bounds, Buckets: buckets, Sum: 1}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		got, hi := histQuantile(h, q), bucketQuantile(h, q)
		lo := 0.0
		for i, b := range bounds {
			if b == hi && i > 0 {
				lo = bounds[i-1]
			}
		}
		if got <= lo || got > hi {
			t.Errorf("q=%v: interpolated %v outside bucket (%v, %v]", q, got, lo, hi)
		}
	}
}

// TestRoamScheduleKeepsAPsLevel replays the roam schedule's moves and
// checks the station counts per AP never drift apart once levelled.
func TestRoamScheduleKeepsAPsLevel(t *testing.T) {
	w, _ := findWorkload("cluster-paced")
	s := w.serve
	roams := roamSchedule(s, w.load.RoamRate, 3, 20)
	if len(roams) == 0 {
		t.Fatal("no roam events")
	}
	route := make([]int, s.STAs)
	count := make([]int, s.APs)
	for sta := range route {
		route[sta] = cluster.HomeAP(sta, s.APs)
		count[route[sta]]++
	}
	levelled := false
	for _, r := range roams {
		count[route[r.sta]]--
		route[r.sta] = int(r.ap)
		count[r.ap]++
		lo, hi := count[0], count[0]
		for _, c := range count {
			lo, hi = min(lo, c), max(hi, c)
		}
		if hi-lo <= 2 {
			levelled = true
		} else if levelled {
			t.Fatalf("AP station counts drifted to %v after levelling", count)
		}
	}
	if !levelled {
		t.Fatalf("AP station counts never levelled: %v", count)
	}
}
