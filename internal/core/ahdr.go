package core

import (
	"fmt"

	"carpool/internal/bloom"
	"carpool/internal/fec"
	"carpool/internal/modem"
	"carpool/internal/ofdm"
)

// The aggregation header occupies two OFDM symbols right after the
// preamble, coded with the most robust scheme available (BPSK, rate 1/2):
// 48 information bits -> 96 coded bits -> 2 x 48 BPSK subcarriers.
const (
	// AHDRSymbols is the A-HDR length in OFDM symbols.
	AHDRSymbols = 2
	ahdrBits    = bloom.FilterBits
)

// BuildAHDR encodes a Bloom filter into the two A-HDR symbols. The symbols
// use pilot-polarity indices 0 and 1 (the positions right after the
// preamble) and never carry an injected phase offset.
func BuildAHDR(f bloom.Filter) ([]complex128, error) {
	coded, err := fec.ConvEncode(f.Bits(), fec.Rate1_2)
	if err != nil {
		return nil, err
	}
	if len(coded) != AHDRSymbols*ofdm.NumData {
		return nil, fmt.Errorf("core: A-HDR coded length %d, want %d", len(coded), AHDRSymbols*ofdm.NumData)
	}
	il, err := fec.CachedInterleaver(ofdm.NumData, 1)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, AHDRSymbols*ofdm.SymbolLen)
	var block [ofdm.NumData]byte
	var points [ofdm.NumData]complex128
	for s := 0; s < AHDRSymbols; s++ {
		if err := il.InterleaveInto(block[:], coded[s*ofdm.NumData:(s+1)*ofdm.NumData]); err != nil {
			return nil, err
		}
		if err := modem.MapInto(points[:], modem.BPSK, block[:]); err != nil {
			return nil, err
		}
		if err := ofdm.AssembleSymbolInto(out[s*ofdm.SymbolLen:(s+1)*ofdm.SymbolLen], points[:], s, 0); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeAHDR inverts BuildAHDR from the two symbols' equalized,
// phase-compensated data points (48 per symbol). Its scratch lives on the
// stack and the Viterbi runs on fec's pooled decoder.
func DecodeAHDR(dataPoints [][]complex128) (bloom.Filter, error) {
	if len(dataPoints) != AHDRSymbols {
		return 0, fmt.Errorf("core: A-HDR needs %d symbols, got %d", AHDRSymbols, len(dataPoints))
	}
	il, err := fec.CachedInterleaver(ofdm.NumData, 1)
	if err != nil {
		return 0, err
	}
	var block [ofdm.NumData]byte
	var coded [AHDRSymbols * ofdm.NumData]byte
	for s, pts := range dataPoints {
		if err := modem.DemapInto(block[:], modem.BPSK, pts); err != nil {
			return 0, err
		}
		if err := il.DeinterleaveInto(coded[s*ofdm.NumData:(s+1)*ofdm.NumData], block[:]); err != nil {
			return 0, err
		}
	}
	var bits [ahdrBits]byte
	if err := fec.ViterbiDecodeInto(bits[:], coded[:], fec.Rate1_2, ahdrBits); err != nil {
		return 0, err
	}
	return bloom.FromBits(bits[:])
}
