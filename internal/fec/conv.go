// Package fec implements the IEEE 802.11 OFDM forward-error-correction
// chain: the frame-synchronous scrambler, the K=7 rate-1/2 convolutional
// code with puncturing to rates 2/3 and 3/4, one Viterbi kernel serving
// both hard and soft decisions, the two-permutation block interleaver, and
// the CRC family used by Carpool (CRC-32 frame FCS plus the tiny
// CRC-1/CRC-2 symbol-level checksums carried on the phase-offset side
// channel).
package fec

import (
	"fmt"
	"sync"
)

// The 802.11 convolutional code: constraint length 7, generator polynomials
// g0 = 133 (octal), g1 = 171 (octal).
//
// The shift register here keeps the newest input bit at the LSB, so the
// generator masks below are the bit-reversals of the standard's MSB-first
// octal constants (133 -> 155, 171 -> 117). The emitted code is exactly the
// standard one: the impulse response of output A is 1011011 and of output B
// is 1111001, current bit first.
const (
	constraintLen = 7
	numStates     = 1 << (constraintLen - 1) // 64
	genA          = 0o155
	genB          = 0o117
)

// CodeRate identifies a puncturing pattern applied to the rate-1/2 mother
// code.
type CodeRate int

// Supported coding rates. Values start at 1 so the zero value is invalid.
const (
	Rate1_2 CodeRate = iota + 1
	Rate2_3
	Rate3_4
)

// String returns the conventional fraction.
func (r CodeRate) String() string {
	switch r {
	case Rate1_2:
		return "1/2"
	case Rate2_3:
		return "2/3"
	case Rate3_4:
		return "3/4"
	default:
		return fmt.Sprintf("CodeRate(%d)", int(r))
	}
}

// Valid reports whether r is a supported rate.
func (r CodeRate) Valid() bool { return r >= Rate1_2 && r <= Rate3_4 }

// Ratio returns the information/coded bit ratio, e.g. 0.75 for rate 3/4.
func (r CodeRate) Ratio() float64 {
	switch r {
	case Rate1_2:
		return 0.5
	case Rate2_3:
		return 2.0 / 3.0
	case Rate3_4:
		return 0.75
	default:
		return 0
	}
}

// Puncture keep-masks over the rate-1/2 output stream (pairs A0 B0 A1 B1
// ...), in the order defined by 802.11-2012 §18.3.5.6. Package-level so the
// hot decode paths never allocate a pattern slice.
var (
	pattern1_2 = []bool{true, true}
	// Period: 2 input bits -> 4 mother bits, drop B1.
	pattern2_3 = []bool{true, true, true, false}
	// Period: 3 input bits -> 6 mother bits, drop B1 and A2.
	pattern3_4 = []bool{true, true, true, false, false, true}
)

// puncturePattern returns the rate's shared keep-mask. Callers must not
// mutate it.
func (r CodeRate) puncturePattern() []bool {
	switch r {
	case Rate1_2:
		return pattern1_2
	case Rate2_3:
		return pattern2_3
	case Rate3_4:
		return pattern3_4
	default:
		return nil
	}
}

// parity64 returns the parity of the lower 7 bits of x.
func parity7(x uint32) byte {
	x &= 0x7f
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return byte(x & 1)
}

// branchOut[s][b] packs the two coded output bits (outA<<1 | outB) emitted
// when input bit b is shifted into state s. The table depends only on the
// generator pair, so it is built once at package init instead of inside
// every ViterbiDecode call.
var branchOut = buildBranchTable(genA, genB)

func buildBranchTable(ga, gb uint32) (t [numStates][2]byte) {
	for s := 0; s < numStates; s++ {
		for b := 0; b < 2; b++ {
			reg := uint32((s<<1)|b) & 0x7f
			t[s][b] = parity7(reg&ga)<<1 | parity7(reg&gb)
		}
	}
	return t
}

// ConvEncode encodes bits with the 802.11 rate-1/2 mother code, then
// punctures to the requested rate. Input bits must be 0/1.
//
// The encoder starts in the all-zero state. Callers who need trellis
// termination should append six zero tail bits themselves (the PHY layer in
// this repository does so per the 802.11 TAIL field).
func ConvEncode(bits []byte, rate CodeRate) ([]byte, error) {
	if !rate.Valid() {
		return nil, fmt.Errorf("fec: invalid code rate %v", rate)
	}
	pattern := rate.puncturePattern()
	mother := make([]byte, 0, 2*len(bits))
	var state uint32
	for _, b := range bits {
		state = ((state << 1) | uint32(b&1)) & 0x7f
		mother = append(mother, parity7(state&genA), parity7(state&genB))
	}
	out := make([]byte, 0, len(mother))
	for i, b := range mother {
		if pattern[i%len(pattern)] {
			out = append(out, b)
		}
	}
	return out, nil
}

// hardPool recycles the decoders behind ViterbiDecode and
// ViterbiDecodeInto, so hard decodes on any goroutine reuse warm survivor
// and LLR buffers instead of allocating a trellis per call.
var hardPool = sync.Pool{New: func() any { return new(SoftDecoder) }}

// ViterbiDecode performs maximum-likelihood hard-decision decoding of a
// punctured convolutional stream. numInfoBits is the number of information
// bits the caller expects (including any tail bits it appended at encode
// time). Coded values other than 0 and 1 are erasures and, like the
// positions depuncturing re-inserts, contribute zero branch metric.
//
// There is no separate hard-decision trellis: the decode runs on the same
// SWAR kernel as SoftDecoder, fed unit-confidence LLRs (see
// SoftDecoder.DecodeHardInto), which walks exactly the Hamming-metric
// survivor path.
func ViterbiDecode(coded []byte, rate CodeRate, numInfoBits int) ([]byte, error) {
	if !rate.Valid() {
		return nil, fmt.Errorf("fec: invalid code rate %v", rate)
	}
	if numInfoBits <= 0 {
		return nil, fmt.Errorf("fec: numInfoBits must be positive, got %d", numInfoBits)
	}
	out := make([]byte, numInfoBits)
	if err := ViterbiDecodeInto(out, coded, rate, numInfoBits); err != nil {
		return nil, err
	}
	return out, nil
}

// ViterbiDecodeInto is ViterbiDecode writing into dst (len(dst) ==
// numInfoBits) through a pooled decoder: in steady state it allocates
// nothing, so short fixed-size decodes (SIG, A-HDR) can keep dst on the
// stack.
func ViterbiDecodeInto(dst, coded []byte, rate CodeRate, numInfoBits int) error {
	d := hardPool.Get().(*SoftDecoder)
	err := d.DecodeHardInto(dst, coded, rate, numInfoBits)
	hardPool.Put(d)
	return err
}

// TailBits is the number of zero bits appended to terminate the trellis.
const TailBits = constraintLen - 1
