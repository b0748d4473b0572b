package phy

import (
	"bytes"
	"testing"

	"carpool/internal/modem"
	"carpool/internal/obs"
	"carpool/internal/ofdm"
)

// TestDecodeDataSymbolsSteadyStateAllocs pins the per-symbol allocation
// budget of the receive hot loop: DecodeDataSymbolsOpts allocates only the
// flat buffers the Segment retains (O(1) allocations per call), never per
// symbol. Doubling the symbol count must therefore not increase the
// allocation count.
func TestDecodeDataSymbolsSteadyStateAllocs(t *testing.T) {
	frame, err := Transmit(make([]byte, 1500), TxConfig{MCS: MCS24})
	if err != nil {
		t.Fatal(err)
	}
	buf, h, _, status := Sync(frame.Samples, 0)
	if status != StatusOK {
		t.Fatalf("sync status %v", status)
	}
	nsym := frame.NumDataSymbols()
	tracker := NewStandardTracker()

	decode := func(n int) {
		tracker.Init(h, MCS24.Mod)
		seg, err := DecodeDataSymbols(buf, ofdm.PreambleLen+ofdm.SymbolLen, 1, n,
			MCS24.Mod, tracker, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(seg.Blocks) != n {
			t.Fatalf("decoded %d symbols, want %d", len(seg.Blocks), n)
		}
	}
	half := testing.AllocsPerRun(20, func() { decode(nsym / 2) })
	full := testing.AllocsPerRun(20, func() { decode(nsym) })
	if full > half {
		t.Errorf("allocations grow with symbol count: %v for %d symbols vs %v for %d — the per-symbol loop is allocating",
			full, nsym, half, nsym/2)
	}
	// The flat-buffer setup itself is a handful of allocations.
	if full > 12 {
		t.Errorf("DecodeDataSymbols made %v allocations for one call, want O(1) setup only", full)
	}
}

// TestDemodSymbolZeroAllocs drives the exact per-symbol demod sequence the
// decoder runs — bins, equalize, pilot phase, extract, demap — and requires
// it to be allocation-free.
func TestDemodSymbolZeroAllocs(t *testing.T) {
	frame, err := Transmit(make([]byte, 300), TxConfig{MCS: MCS24})
	if err != nil {
		t.Fatal(err)
	}
	buf, h, _, status := Sync(frame.Samples, 0)
	if status != StatusOK {
		t.Fatalf("sync status %v", status)
	}
	off := ofdm.PreambleLen + ofdm.SymbolLen
	var bins [ofdm.NumSubcarriers]complex128
	var points [ofdm.NumData]complex128
	block := make([]byte, MCS24.CodedBitsPerSymbol())
	allocs := testing.AllocsPerRun(100, func() {
		if err := ofdm.SymbolBinsInto(bins[:], buf[off:]); err != nil {
			t.Fatal(err)
		}
		if err := ofdm.Equalize(bins[:], h); err != nil {
			t.Fatal(err)
		}
		phase, _ := ofdm.TrackPilotPhase(bins[:], 1)
		ofdm.CompensatePhase(bins[:], phase)
		ofdm.ExtractDataInto(points[:], bins[:])
		if err := modem.DemapInto(block, MCS24.Mod, points[:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("per-symbol demod sequence allocates %v times, want 0", allocs)
	}
}

// TestDecodeAllocsUnchangedByObservation pins the observability contract on
// the receive hot loop: with no sink enabled the instrumented decoder must
// allocate exactly as much as before instrumentation (the disabled path is
// one atomic load plus nil checks), and with a sink enabled the counter
// handles are hoisted per call, so allocations still must not grow with the
// symbol count.
func TestDecodeAllocsUnchangedByObservation(t *testing.T) {
	frame, err := Transmit(make([]byte, 1500), TxConfig{MCS: MCS24})
	if err != nil {
		t.Fatal(err)
	}
	buf, h, _, status := Sync(frame.Samples, 0)
	if status != StatusOK {
		t.Fatalf("sync status %v", status)
	}
	nsym := frame.NumDataSymbols()
	tracker := NewStandardTracker()
	decode := func(n int) {
		tracker.Init(h, MCS24.Mod)
		if _, err := DecodeDataSymbols(buf, ofdm.PreambleLen+ofdm.SymbolLen, 1, n,
			MCS24.Mod, tracker, nil, 0); err != nil {
			t.Fatal(err)
		}
	}

	obs.Disable()
	off := testing.AllocsPerRun(20, func() { decode(nsym) })

	// Registry-only sink: counters resolve once per DecodeDataSymbols call
	// (map hits after warmup, no allocation), so full vs half symbol counts
	// must still allocate identically.
	obs.Enable(&obs.Sink{Registry: obs.NewRegistry()})
	defer obs.Disable()
	decode(nsym) // warm up the registry so the names exist
	onHalf := testing.AllocsPerRun(20, func() { decode(nsym / 2) })
	onFull := testing.AllocsPerRun(20, func() { decode(nsym) })

	if off > 12 {
		t.Errorf("disabled-observation decode made %v allocations, want the O(1) setup budget", off)
	}
	if onFull > onHalf {
		t.Errorf("with observation on, allocations grow with symbol count: %v vs %v — per-symbol instrumentation is allocating",
			onFull, onHalf)
	}
	if onFull > off {
		t.Errorf("enabling a registry sink raised per-call allocations from %v to %v", off, onFull)
	}
}

// TestHardDataFieldDecodeAllocs pins the hard DATA-field decode on the
// shared Viterbi kernel: with a warm SoftQDecoder — or the pool behind
// DecodeDataField — the returned payload is the only allocation.
func TestHardDataFieldDecodeAllocs(t *testing.T) {
	payload := make([]byte, 1500)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	blocks, err := EncodeDataField(payload, MCS48, 0x5d)
	if err != nil {
		t.Fatal(err)
	}
	var d SoftQDecoder
	got, err := d.DecodeHardDataField(blocks, MCS48, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("clean hard decode did not return the payload")
	}
	method := testing.AllocsPerRun(20, func() {
		if _, err := d.DecodeHardDataField(blocks, MCS48, len(payload)); err != nil {
			t.Fatal(err)
		}
	})
	if method != 1 {
		t.Errorf("hard DATA-field decode with a reused decoder allocates %v times, want 1 (the payload)", method)
	}
	if raceEnabled {
		return // the race detector makes sync.Pool drop items
	}
	pooled := testing.AllocsPerRun(20, func() {
		if _, err := DecodeDataField(blocks, MCS48, len(payload)); err != nil {
			t.Fatal(err)
		}
	})
	if pooled != 1 {
		t.Errorf("pooled hard DATA-field decode allocates %v times, want 1 (the payload)", pooled)
	}
}

// TestSIGDecodeZeroAllocs pins the per-subframe SIG decode: stack scratch
// plus fec's pooled Viterbi, so walking a SIG chain allocates nothing.
func TestSIGDecodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	want := SIG{MCS: MCS36, Length: 1400}
	points, err := BuildSIGPoints(want)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		sig, err := DecodeSIGPoints(points)
		if err != nil || sig != want {
			t.Fatalf("decoded %+v, %v; want %+v", sig, err, want)
		}
	})
	if allocs != 0 {
		t.Errorf("SIG decode allocates %v times, want 0", allocs)
	}
}
