package conform

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"carpool/internal/core"
	"carpool/internal/faults"
	"carpool/internal/modem"
	"carpool/internal/phy"
)

var update = flag.Bool("update", false, "rewrite testdata/golden traces instead of comparing")

// goldenTrace freezes one MCS's end-to-end receive chain: the exact
// transmitted samples, the impaired reception outcome, and digests of
// every decoded artifact. Any change — intended or not — shows up as a
// digest mismatch; intended changes re-freeze with -update.
type goldenTrace struct {
	MCS            string `json:"mcs"`
	NumSymbols     int    `json:"num_symbols"`
	TxSamples      string `json:"tx_samples_sha256"`
	Scenario       string `json:"scenario"`
	Status         string `json:"status"`
	CFOBits        string `json:"cfo_float64_bits"`
	Matched        []int  `json:"matched"`
	SymbolsHeard   int    `json:"symbols_heard"`
	SymbolsDecoded int    `json:"symbols_decoded"`
	Payload        string `json:"payload_sha256"`
	Blocks         string `json:"blocks_sha256"`
	SideBits       string `json:"side_bits_sha256"`
	SymbolOK       string `json:"symbol_ok_sha256"`
}

// goldenScenario is the fixed impairment a golden trace passes through:
// AWGN at snrdB plus a mild CFO, so CFO estimation, RTE tracking, and the
// side channel all do real work. The soft-FEC arm runs at
// softGoldenSNR, the hard-FEC arm at hardGoldenSNR.
func goldenScenario(snrdB float64) faults.Scenario {
	return faults.Scenario{Seed: 424242, Impairments: []faults.Impairment{
		faults.AWGN{SNRdB: snrdB},
		faults.CFO{EpsRad: 0.002, Phase0: 0.4},
	}}
}

const softGoldenSNR = 28

// hardGoldenSNR puts each modulation's hard-decision coded bit error rate
// near 1%, so the hard-FEC arm freezes a Viterbi that corrects real
// errors (and, at rate 3/4, leaves a few residual ones) rather than one
// fed a clean stream. A-HDR and SIG still decode at every MCS.
var hardGoldenSNR = map[modem.Modulation]float64{
	modem.BPSK:  4,
	modem.QPSK:  8,
	modem.QAM16: 14,
	modem.QAM64: 20,
}

func hashSamples(samples []complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, s := range samples {
		binary.BigEndian.PutUint64(b[:8], math.Float64bits(real(s)))
		binary.BigEndian.PutUint64(b[8:], math.Float64bits(imag(s)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashByteBlocks(blocks [][]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, blk := range blocks {
		binary.BigEndian.PutUint64(n[:], uint64(len(blk)))
		h.Write(n[:])
		h.Write(blk)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashBools(bs []bool) string {
	h := sha256.New()
	for _, b := range bs {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// captureTrace runs one MCS through build -> impair -> receive and
// digests the result. The soft arm decodes with quantized soft FEC at the
// mild golden scenario; the hard arm decodes hard decisions at the
// modulation's hardGoldenSNR.
func captureTrace(t *testing.T, mcs phy.MCS, hard bool) goldenTrace {
	t.Helper()
	frame, err := fixtureMCSFrame(mcs)
	if err != nil {
		t.Fatalf("%v: building golden frame: %v", mcs, err)
	}
	sc := goldenScenario(softGoldenSNR)
	if hard {
		sc = goldenScenario(hardGoldenSNR[mcs.Mod])
	}
	imp := sc.Apply(frame.Samples)
	res, err := core.ReceiveFrame(imp, core.ReceiverConfig{
		MAC: fixtureMAC(1), UseRTE: true, SoftFEC: !hard, KnownStart: 0,
	})
	if err != nil {
		t.Fatalf("%v: golden receive errored: %v", mcs, err)
	}
	tr := goldenTrace{
		MCS:            mcs.String(),
		NumSymbols:     frame.NumSymbols(),
		TxSamples:      hashSamples(frame.Samples),
		Scenario:       sc.String(),
		Status:         fmt.Sprint(res.Status),
		CFOBits:        fmt.Sprintf("%016x", math.Float64bits(res.CFORad)),
		Matched:        res.Matched,
		SymbolsHeard:   res.SymbolsHeard,
		SymbolsDecoded: res.SymbolsDecoded,
	}
	var payloads, blocks, sides [][]byte
	var oks []bool
	for _, sub := range res.Subframes {
		payloads = append(payloads, sub.Payload)
		blocks = append(blocks, sub.Blocks...)
		sides = append(sides, sub.SideBits...)
		oks = append(oks, sub.SymbolOK...)
	}
	tr.Payload = hashByteBlocks(payloads)
	tr.Blocks = hashByteBlocks(blocks)
	tr.SideBits = hashByteBlocks(sides)
	tr.SymbolOK = hashBools(oks)
	return tr
}

// fixtureMCSFrame builds the single-subframe golden frame for one MCS
// with a deterministic payload derived from the rate.
func fixtureMCSFrame(mcs phy.MCS) (*core.Frame, error) {
	seed := int64(1000 + int(mcs.DataRateMbps()))
	payload := make([]byte, 257)
	s := uint64(seed)
	for i := range payload {
		s = s*6364136223846793005 + 1442695040888963407
		payload[i] = byte(s >> 56)
	}
	return core.BuildFrame([]core.Subframe{
		{Receiver: fixtureMAC(1), MCS: mcs, Payload: payload},
	}, core.FrameConfig{})
}

func goldenName(mcs phy.MCS, hard bool) string {
	name := fmt.Sprintf("mcs%d", int(mcs.DataRateMbps()))
	if hard {
		name += "-hard"
	}
	return name
}

func goldenPath(mcs phy.MCS, hard bool) string {
	return filepath.Join("testdata", "golden", goldenName(mcs, hard)+".json")
}

// TestGoldenTraces locks the receive chain's observable behaviour per
// MCS, once with soft FEC (mcsN) and once with hard FEC (mcsN-hard). On
// intended changes run:
//
//	go test ./internal/conform -run TestGoldenTraces -update
func TestGoldenTraces(t *testing.T) {
	for _, mcs := range phy.AllMCS() {
		for _, hard := range []bool{false, true} {
			testGoldenTrace(t, mcs, hard)
		}
	}
}

func testGoldenTrace(t *testing.T, mcs phy.MCS, hard bool) {
	t.Run(goldenName(mcs, hard), func(t *testing.T) {
		got := captureTrace(t, mcs, hard)
		path := goldenPath(mcs, hard)
		if *update {
			data, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("no golden trace (run with -update to freeze): %v", err)
		}
		var want goldenTrace
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("corrupt golden trace %s: %v", path, err)
		}
		if gd, wd := dump(got), dump(want); gd != wd {
			t.Errorf("receive chain drifted from golden trace %s:\n got %s\nwant %s", path, gd, wd)
		}
	})
}
