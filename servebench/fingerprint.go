package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/cmplx"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"carpool/internal/dsp"
)

// fingerprint identifies the host and build a result was measured on.
// Results from two different fingerprints are not comparable: a
// difference between them says nothing about the code.
type fingerprint struct {
	CPUModel         string `json:"cpu_model"`
	NProc            int    `json:"nproc"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	ServerGOMAXPROCS int    `json:"server_gomaxprocs"`
	GOAMD64          string `json:"goamd64"`
	GoVersion        string `json:"go_version"`
	// Commit is the checked-out git commit, or "none" outside a git
	// checkout; SourceDigest hashes the Go sources either way.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Workers      int    `json:"workers"`
	Shards       int    `json:"shards"`
	APs          int    `json:"aps"`
	// FFT64Ns is the calibration kernel: one 64-point dsp.FFT.
	FFT64Ns float64 `json:"fft64_ns"`
}

func takeFingerprint(w workload) fingerprint {
	fp := fingerprint{
		CPUModel:         cpuModel(),
		NProc:            runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS: w.serve.GOMAXPROCS,
		GOAMD64:          "unknown",
		GoVersion:        runtime.Version(),
		Commit:           gitCommit(),
		SourceDigest:     sourceDigest(),
		Workers:          w.serve.Workers,
		Shards:           w.serve.Shards,
		APs:              w.serve.APs,
		FFT64Ns:          calibrateFFT64(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				fp.GOAMD64 = s.Value
			}
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from .git without running git.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under the working
// directory, skipping hidden and build directories.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// calibrateFFT64 times a 64-point FFT: the median of several timed
// loops, in ns per transform.
func calibrateFFT64() float64 {
	x := make([]complex128, 64)
	const n = 20000
	runs := make([]float64, 7)
	for r := range runs {
		for i := range x {
			x[i] = cmplx.Rect(1, float64(i))
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = dsp.FFT(x)
			if i%64 == 63 {
				dsp.Scale(x, 1.0/64) // keep magnitudes bounded
			}
		}
		runs[r] = float64(time.Since(t0).Nanoseconds()) / n
	}
	return median(runs)
}

// timeUnits are the units of the end-to-end metrics that the host's
// speed moves.
var timeUnits = map[string]bool{"ns": true, "ms": true, "s": true, "frames/s": true}

// fft64Limit is the calibration ratio beyond which two results count as
// measured on different machines even with the same CPU model: one plus
// the smallest bound of a time metric, so that host speed alone can
// never move a time metric past its bound.
func fft64Limit(bounds map[string]bound) float64 {
	limit := 0.0
	for _, bd := range bounds {
		if timeUnits[bd.Unit] && (limit == 0 || bd.Bound < limit) {
			limit = bd.Bound
		}
	}
	return 1 + limit
}

// hostMismatch lists the fingerprint fields that differ between two
// results, and their calibrations when the ratio exceeds limit; any
// entry makes the results incomparable.
func hostMismatch(a, b fingerprint, limit float64) []string {
	var out []string
	diff := func(name string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	diff("cpu_model", a.CPUModel, b.CPUModel)
	diff("nproc", a.NProc, b.NProc)
	diff("server_gomaxprocs", a.ServerGOMAXPROCS, b.ServerGOMAXPROCS)
	diff("goamd64", a.GOAMD64, b.GOAMD64)
	diff("go_version", a.GoVersion, b.GoVersion)
	diff("workers", a.Workers, b.Workers)
	diff("shards", a.Shards, b.Shards)
	diff("aps", a.APs, b.APs)
	if r := b.FFT64Ns / a.FFT64Ns; !(r <= limit && r >= 1/limit) {
		out = append(out, fmt.Sprintf("fft64_ns: %.1f vs %.1f", a.FFT64Ns, b.FFT64Ns))
	}
	return out
}

// bound is an end-to-end metric's unit, direction and regression bound.
type bound struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkBounds reads each end-to-end metric's bound from
// BENCHMARK.json in the working directory.
func benchmarkBounds() (map[string]bound, error) {
	doc, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name string `json:"name"`
			bound
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(doc, &b); err != nil {
		return nil, err
	}
	out := map[string]bound{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.bound
	}
	return out, nil
}

// compareMain compares a baseline result record with a candidate one.
// Records from different fingerprints are flagged as not comparable and
// never reported as a regression. Exit codes: 0 no regression, 1 a
// metric worse than its bound, 3 not comparable, 2 usage.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: servebench compare <baseline.json> <candidate.json>")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		doc, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(doc, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench compare: %s: %v\n", path, err)
			return 2
		}
	}
	base, cand := recs[0], recs[1]
	if base.Workload != cand.Workload || base.Trace != cand.Trace || base.Seconds != cand.Seconds {
		fmt.Println("NOT COMPARABLE: different workload, trace mode or run length")
		return 3
	}
	bounds, err := benchmarkBounds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench compare: %v\n", err)
		return 2
	}
	if mm := hostMismatch(base.Fingerprint, cand.Fingerprint, fft64Limit(bounds)); len(mm) > 0 {
		fmt.Println("NOT COMPARABLE: measured on different hosts or host speeds; differences are not regressions")
		for _, m := range mm {
			fmt.Println("  " + m)
		}
		return 3
	}
	fmt.Printf("calibration: fft64 %.1f ns -> %.1f ns (host speed ratio %.3f)\n",
		base.Fingerprint.FFT64Ns, cand.Fingerprint.FFT64Ns, base.Fingerprint.FFT64Ns/cand.Fingerprint.FFT64Ns)
	worse := false
	names := make([]string, 0, len(base.Result.Metrics))
	for name := range base.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a, b := base.Result.Metrics[name].Value, cand.Result.Metrics[name].Value
		change := ratio(b, a) - 1
		verdict := ""
		if bd, ok := bounds[name]; ok && a != 0 {
			if (bd.Better == "lower" && change > bd.Bound) || (bd.Better == "higher" && -change > bd.Bound) {
				verdict, worse = "WORSE THAN BOUND", true
			}
		}
		fmt.Printf("%-32s %14.6g -> %14.6g  %+7.2f%%  %s\n", name, a, b, 100*change, verdict)
	}
	if worse {
		return 1
	}
	return 0
}
