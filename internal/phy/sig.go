package phy

import (
	"fmt"

	"carpool/internal/fec"
	"carpool/internal/modem"
	"carpool/internal/ofdm"
)

// SIG is the decoded PLCP header of one (sub)frame: the modulation/coding
// scheme and payload length in bytes. In Carpool every subframe carries its
// own SIG, so different receivers can get different MCSs in one frame
// (paper §4.1).
type SIG struct {
	MCS    MCS
	Length int // payload bytes, 1..4095
}

const (
	sigBitCount = 24
	maxSIGLen   = 1<<12 - 1
	serviceBits = 16
)

// MaxPayloadBytes is the largest payload one SIG can announce: the 12-bit
// PLCP LENGTH field tops out at 4095. A Carpool subframe carrying more than
// this is unbuildable, whatever the aggregate allows.
const MaxPayloadBytes = maxSIGLen

// sigMCS is the fixed scheme the SIG symbol itself is sent with.
var sigMCS = MCS{modem.BPSK, fec.Rate1_2}

// encodeSIGBits lays out RATE(4) RESERVED(1) LENGTH(12, LSB first)
// PARITY(1) TAIL(6) per Std 802.11-2012 §18.3.4.
func encodeSIGBits(s SIG) ([]byte, error) {
	rb, ok := rateBits[s.MCS]
	if !ok {
		return nil, fmt.Errorf("phy: MCS %v has no SIG rate encoding", s.MCS)
	}
	if s.Length < 1 || s.Length > maxSIGLen {
		return nil, fmt.Errorf("phy: SIG length %d outside 1..%d", s.Length, maxSIGLen)
	}
	bits := make([]byte, sigBitCount)
	for i := 0; i < 4; i++ {
		bits[i] = (rb >> (3 - i)) & 1
	}
	// bits[4] reserved = 0
	for i := 0; i < 12; i++ {
		bits[5+i] = byte((s.Length >> i) & 1)
	}
	var parity byte
	for _, b := range bits[:17] {
		parity ^= b
	}
	bits[17] = parity
	// bits[18..23] tail = 0
	return bits, nil
}

// decodeSIGBits validates parity, tail, and the RATE pattern.
func decodeSIGBits(bits []byte) (SIG, error) {
	if len(bits) != sigBitCount {
		return SIG{}, fmt.Errorf("phy: SIG needs %d bits, got %d", sigBitCount, len(bits))
	}
	var parity byte
	for _, b := range bits[:17] {
		parity ^= b
	}
	if parity != bits[17] {
		return SIG{}, fmt.Errorf("phy: SIG parity check failed")
	}
	for i := 18; i < 24; i++ {
		if bits[i] != 0 {
			return SIG{}, fmt.Errorf("phy: SIG tail bit %d nonzero", i)
		}
	}
	var rb byte
	for i := 0; i < 4; i++ {
		rb = rb<<1 | bits[i]
	}
	mcs, ok := mcsByRateBits[rb]
	if !ok {
		return SIG{}, fmt.Errorf("phy: unknown SIG rate pattern %04b", rb)
	}
	length := 0
	for i := 0; i < 12; i++ {
		length |= int(bits[5+i]) << i
	}
	if length == 0 {
		return SIG{}, fmt.Errorf("phy: SIG length 0")
	}
	return SIG{MCS: mcs, Length: length}, nil
}

// BuildSIGSymbol encodes a SIG into one BPSK-1/2 OFDM symbol with the given
// pilot-polarity index. SIG symbols never carry an injected phase offset.
func BuildSIGSymbol(s SIG, symIndex int) ([]complex128, error) {
	bits, err := encodeSIGBits(s)
	if err != nil {
		return nil, err
	}
	coded, err := fec.ConvEncode(bits, fec.Rate1_2)
	if err != nil {
		return nil, err
	}
	il, err := fec.CachedInterleaver(sigMCS.CodedBitsPerSymbol(), sigMCS.Mod.BitsPerSymbol())
	if err != nil {
		return nil, err
	}
	block, err := il.Interleave(coded)
	if err != nil {
		return nil, err
	}
	points, err := modem.Map(sigMCS.Mod, block)
	if err != nil {
		return nil, err
	}
	return ofdm.AssembleSymbol(points, symIndex, 0)
}

// BuildSIGPoints encodes a SIG into its 48 BPSK constellation points,
// without assembling the OFDM symbol — the MU-MIMO extension precodes these
// onto a spatial stream.
func BuildSIGPoints(s SIG) ([]complex128, error) {
	bits, err := encodeSIGBits(s)
	if err != nil {
		return nil, err
	}
	coded, err := fec.ConvEncode(bits, fec.Rate1_2)
	if err != nil {
		return nil, err
	}
	il, err := fec.CachedInterleaver(sigMCS.CodedBitsPerSymbol(), sigMCS.Mod.BitsPerSymbol())
	if err != nil {
		return nil, err
	}
	block, err := il.Interleave(coded)
	if err != nil {
		return nil, err
	}
	return modem.Map(sigMCS.Mod, block)
}

// DecodeSIGPoints inverts BuildSIGPoints from 48 equalized data points.
func DecodeSIGPoints(points []complex128) (SIG, error) {
	return decodeSIGSymbol(points)
}

// decodeSIGSymbol inverts BuildSIGSymbol from equalized, phase-compensated
// bins. Carpool decodes one SIG per subframe per receiver, so the demap,
// deinterleave and info-bit scratch lives on the stack and the Viterbi
// runs on fec's pooled decoder: no steady-state allocations.
func decodeSIGSymbol(dataPoints []complex128) (SIG, error) {
	var block, coded [ofdm.NumData]byte // BPSK: ncbps == NumData
	if err := modem.DemapInto(block[:], sigMCS.Mod, dataPoints); err != nil {
		return SIG{}, err
	}
	il, err := fec.CachedInterleaver(sigMCS.CodedBitsPerSymbol(), sigMCS.Mod.BitsPerSymbol())
	if err != nil {
		return SIG{}, err
	}
	if err := il.DeinterleaveInto(coded[:], block[:]); err != nil {
		return SIG{}, err
	}
	var bits [sigBitCount]byte
	if err := fec.ViterbiDecodeInto(bits[:], coded[:], fec.Rate1_2, sigBitCount); err != nil {
		return SIG{}, err
	}
	return decodeSIGBits(bits[:])
}
